package nat

import (
	"slices"
	"testing"
	"unsafe"

	"pktpredict/internal/click"
	"pktpredict/internal/flowtab"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
	"pktpredict/internal/rng"
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
	if tb.Taken() != 2 {
		t.Fatalf("%d bindings for two flows, want 2", tb.Taken())
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
	if tb.Taken() > tb.tab.Lines().Count {
		t.Fatalf("occupied %d exceeds size %d", tb.Taken(), tb.tab.Lines().Count)
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
	if !ok || el.Table.tab.Lines().Count != 128 {
		t.Fatalf("unexpected instance %T (size %d)", inst, el.Table.tab.Lines().Count)
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

// eagerMapping and eagerTable are the table as it was before its host
// side went sparse: a mapping for every slot, made up front, with an
// in-use flag, and its own probe loop. They are the oracle the table
// must match op for op.
type eagerMapping struct {
	key      netpkt.FiveTuple
	extPort  uint16
	used     bool
	lastSeen uint64
}

type eagerTable struct {
	slots    []eagerMapping
	region   mem.Region
	portLine hw.Addr
	mask     uint64
	nextPort uint32
	clock    uint64
}

// newEagerTable lays the oracle out exactly as NewTable lays out a table
// on a fresh arena, so the two emit the same addresses.
func newEagerTable(capacity int) *eagerTable {
	arena := mem.NewArena(0)
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &eagerTable{
		slots:    make([]eagerMapping, size),
		region:   mem.NewRegion(arena, size, hw.LineSize, true),
		portLine: arena.Alloc(hw.LineSize, hw.LineSize),
		mask:     uint64(size - 1),
		nextPort: firstPort,
	}
}

func (t *eagerTable) allocPort(ctx *click.Ctx) uint16 {
	ctx.Load(t.portLine)
	ctx.Store(t.portLine)
	port := uint16(t.nextPort)
	if t.nextPort++; t.nextPort > 65535 {
		t.nextPort = firstPort
	}
	return port
}

// eagerProbes bounds the oracle's probe chain.
const eagerProbes = 8

func (t *eagerTable) translate(ctx *click.Ctx, key netpkt.FiveTuple) (uint16, bool) {
	old := ctx.SetFunc(fnNAT)
	defer ctx.SetFunc(old)
	t.clock++
	ctx.Compute(30, 28)
	idx := key.Hash() & t.mask
	victim, victimSeen := idx, ^uint64(0)
	for probe := 0; probe < eagerProbes; probe++ {
		slot := &t.slots[idx]
		ctx.Load(t.region.Addr(int(idx)))
		ctx.Compute(4, 5)
		if slot.used && slot.key == key {
			slot.lastSeen = t.clock
			ctx.Store(t.region.Addr(int(idx)))
			return slot.extPort, false
		}
		if !slot.used {
			victim = idx
			break
		}
		if slot.lastSeen < victimSeen {
			victim, victimSeen = idx, slot.lastSeen
		}
		idx = (idx + 1) & t.mask
	}
	slot := &t.slots[victim]
	*slot = eagerMapping{key: key, extPort: t.allocPort(ctx), used: true, lastSeen: t.clock}
	ctx.Store(t.region.Addr(int(victim)))
	return slot.extPort, true
}

func (t *eagerTable) occupied() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].used {
			n++
		}
	}
	return n
}

// TestTranslateMatchesEagerTable drives random flow sequences through the
// table and the eager oracle side by side; at the end every oracle
// mapping must be found as it is. The 8- and 16-slot
// tables fill every probe chain, so most new flows expire the least
// recently used binding of a full chain; the larger ones mostly hit or
// bind a free slot.
func TestTranslateMatchesEagerTable(t *testing.T) {
	for _, c := range []struct{ slots, flows int }{{8, 40}, {16, 48}, {64, 96}, {1024, 3000}} {
		r := rng.New(uint64(c.slots))
		got, want := newTable(c.slots), newEagerTable(c.slots)
		var gctx, wctx click.Ctx
		for i := 0; i < 100*c.slots; i++ {
			key := tuple(uint16(r.Intn(c.flows)))
			gp, gc := got.Translate(&gctx, key)
			wp, wc := want.translate(&wctx, key)
			if gp != wp || gc != wc {
				t.Fatalf("%d slots, packet %d: port %d created %v, want %d %v", c.slots, i, gp, gc, wp, wc)
			}
			if !slices.Equal(gctx.Ops, wctx.Ops) {
				t.Fatalf("%d slots, packet %d: ops %v, want %v", c.slots, i, gctx.Ops, wctx.Ops)
			}
			gctx.Ops, wctx.Ops = gctx.Ops[:0], wctx.Ops[:0]
			if got.Taken() != want.occupied() {
				t.Fatalf("%d slots, packet %d: %d slots taken, want %d", c.slots, i, got.Taken(), want.occupied())
			}
		}
		for i, w := range want.slots {
			if m, ok := got.tab.Lookup(w.key.Hash(), w.key); w.used && (!ok || m.Val != w.extPort || m.Seen != w.lastSeen) {
				t.Fatalf("%d slots: slot %d's mapping %+v is %+v (found %v)", c.slots, i, w, m, ok)
			}
		}
	}
}

// TestMappingIsThirtyTwoBytes: a mapping (key, recency stamp and
// external port) carries no in-use flag, so each live binding takes 32
// bytes on the host.
func TestMappingIsThirtyTwoBytes(t *testing.T) {
	if n := unsafe.Sizeof(flowtab.Slot[netpkt.FiveTuple, uint16]{}); n != 32 {
		t.Fatalf("a mapping is %d bytes, want 32", n)
	}
}
