package nat

import (
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
)

func newTable(capacity int) *Table {
	extIP, _ := ParseAddr("198.51.100.1")
	return NewTable(mem.NewArena(0), capacity, extIP)
}

func tuple(srcPort uint16) netpkt.FiveTuple {
	return netpkt.FiveTuple{
		Src: 0x0a000001, Dst: 0x0a000002,
		SrcPort: srcPort, DstPort: 80, Proto: netpkt.ProtoTCP,
	}
}

func TestTableAllocatesStablePorts(t *testing.T) {
	tb := newTable(64)
	var ctx click.Ctx
	p1, created := tb.Translate(&ctx, tuple(1000))
	if !created {
		t.Fatal("first sight of a flow must create a binding")
	}
	p2, created := tb.Translate(&ctx, tuple(2000))
	if !created || p2 == p1 {
		t.Fatalf("second flow got port %d (first %d)", p2, p1)
	}
	// Same flow again: same port, no new binding.
	again, created := tb.Translate(&ctx, tuple(1000))
	if created || again != p1 {
		t.Fatalf("repeat lookup got port %d created=%v, want %d/false", again, created, p1)
	}
	if tb.Occupied() != 2 {
		t.Fatalf("%d bindings for two flows, want 2", tb.Occupied())
	}
}

func TestTableEvictsLRUUnderPressure(t *testing.T) {
	tb := newTable(8)
	var ctx click.Ctx
	// Far more flows than slots: probe chains fill and evict.
	for i := 0; i < 1000; i++ {
		tb.Translate(&ctx, tuple(uint16(i)))
	}
	if _, created := tb.Translate(&ctx, tuple(0)); !created {
		t.Fatal("overloaded table never evicted the first flow's binding")
	}
	if tb.Occupied() > len(tb.slots) {
		t.Fatalf("occupied %d exceeds size %d", tb.Occupied(), len(tb.slots))
	}
}

func TestTableEmitsTrace(t *testing.T) {
	tb := newTable(64)
	var ctx click.Ctx
	tb.Translate(&ctx, tuple(7))
	var loads, stores int
	for _, op := range ctx.Ops {
		switch op.Kind {
		case hw.OpLoad:
			loads++
		case hw.OpStore:
			stores++
		}
	}
	// At least one probe load, the allocator load, the allocator store,
	// and the entry store.
	if loads < 2 || stores < 2 {
		t.Fatalf("trace too thin: %d loads, %d stores", loads, stores)
	}
}

func natPacket(srcPort uint16) []byte {
	b := make([]byte, 64)
	netpkt.WriteIPv4(b, netpkt.IPv4Header{
		TotalLen: 64, TTL: 64, Proto: netpkt.ProtoTCP,
		Src: 0x0a000001, Dst: 0x0a000002,
	})
	b[netpkt.IPv4HeaderLen] = byte(srcPort >> 8)
	b[netpkt.IPv4HeaderLen+1] = byte(srcPort)
	b[netpkt.IPv4HeaderLen+2] = 0
	b[netpkt.IPv4HeaderLen+3] = 80
	return b
}

func TestElementRewritesAndChecksumStaysValid(t *testing.T) {
	el := &Element{Table: newTable(64)}
	var ctx click.Ctx
	pkt := &click.Packet{Data: natPacket(1234), Addr: 0x4000}
	if v := el.Process(&ctx, pkt); v != click.Continue {
		t.Fatalf("verdict %v", v)
	}
	h, err := netpkt.ParseIPv4(pkt.Data)
	if err != nil {
		t.Fatalf("rewritten packet invalid: %v", err)
	}
	if h.Src != el.Table.ExtIP() {
		t.Fatalf("src %08x, want external %08x", h.Src, el.Table.ExtIP())
	}
	ft, _ := netpkt.ExtractFiveTuple(pkt.Data)
	if ft.SrcPort == 1234 || ft.SrcPort == 0 {
		t.Fatalf("source port not rewritten: %d", ft.SrcPort)
	}

	// The same inner flow must map to the same external port.
	pkt2 := &click.Packet{Data: natPacket(1234), Addr: 0x4000}
	if v := el.Process(&ctx, pkt2); v != click.Continue {
		t.Fatalf("repeat flow: verdict %v", v)
	}
	ft2, _ := netpkt.ExtractFiveTuple(pkt2.Data)
	if ft2.SrcPort != ft.SrcPort {
		t.Fatalf("flow remapped: %d then %d", ft.SrcPort, ft2.SrcPort)
	}
	// A different inner flow must not share the port.
	pkt3 := &click.Packet{Data: natPacket(4321), Addr: 0x4000}
	if v := el.Process(&ctx, pkt3); v != click.Continue {
		t.Fatalf("second flow: verdict %v", v)
	}
	ft3, _ := netpkt.ExtractFiveTuple(pkt3.Data)
	if ft3.SrcPort == ft.SrcPort {
		t.Fatalf("distinct flows share external port %d", ft3.SrcPort)
	}
}

func TestElementDropsGarbage(t *testing.T) {
	el := &Element{Table: newTable(8)}
	var ctx click.Ctx
	if v := el.Process(&ctx, &click.Packet{Data: []byte{1, 2}, Addr: 0}); v != click.Drop {
		t.Fatalf("garbage got %v", v)
	}
}

func TestParseAddr(t *testing.T) {
	addr, err := ParseAddr("198.51.100.1")
	if err != nil || addr != 0xC6336401 {
		t.Fatalf("ParseAddr = %08x, %v", addr, err)
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Fatalf("ParseAddr(%q) accepted", bad)
		}
	}
}

func TestRegistryBuildsRewriter(t *testing.T) {
	env := &click.Env{Arena: mem.NewArena(0), Seed: 1}
	inst, err := click.NewInstance(env, "IPRewriter", click.ParseArgs([]string{"EXTIP 10.0.0.254", "CAPACITY 128"}))
	if err != nil {
		t.Fatal(err)
	}
	el, ok := inst.(*Element)
	if !ok || len(el.Table.slots) != 128 {
		t.Fatalf("unexpected instance %T (size %d)", inst, len(el.Table.slots))
	}
	want, _ := ParseAddr("10.0.0.254")
	if el.Table.ExtIP() != want {
		t.Fatal("EXTIP not honoured")
	}
	if _, err := click.NewInstance(env, "IPRewriter", click.ParseArgs([]string{"EXTIP nonsense"})); err == nil {
		t.Fatal("bad EXTIP accepted")
	}
	if _, err := click.NewInstance(env, "IPRewriter", click.ParseArgs([]string{"CAPACITY -1"})); err == nil {
		t.Fatal("bad CAPACITY accepted")
	}
}
