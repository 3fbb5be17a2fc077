package netflow

import (
	"testing"
	"testing/quick"
	"unsafe"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/netpkt"
	"pktpredict/internal/rng"
)

func newTable(capacity int) *Table { return NewTable(mem.NewArena(0), capacity) }

func tuple(i uint32) netpkt.FiveTuple {
	return netpkt.FiveTuple{Src: i, Dst: i ^ 0xffff, SrcPort: uint16(i), DstPort: 80, Proto: netpkt.ProtoUDP}
}

func TestTableRoundsUpToPowerOfTwo(t *testing.T) {
	if got := len(newTable(100000).slots); got != 131072 {
		t.Fatalf("slots = %d, want 131072", got)
	}
}

func TestUpdateCreatesAndAccumulates(t *testing.T) {
	tb := newTable(1024)
	var ctx click.Ctx
	k := tuple(7)
	tb.Update(&ctx, k, 64)
	tb.Update(&ctx, k, 100)
	e, ok := tb.Get(k)
	if !ok {
		t.Fatal("entry missing after updates")
	}
	if e.Packets != 2 || e.Bytes != 164 {
		t.Fatalf("entry = %+v, want 2 pkts / 164 bytes", e)
	}
	if tb.Occupied() != 1 {
		t.Fatalf("%d records for one flow, want 1", tb.Occupied())
	}
}

func TestGetMissingFlow(t *testing.T) {
	tb := newTable(64)
	if _, ok := tb.Get(tuple(1)); ok {
		t.Fatal("empty table returned an entry")
	}
}

func TestLastSeenAdvances(t *testing.T) {
	tb := newTable(64)
	var ctx click.Ctx
	tb.Update(&ctx, tuple(1), 64)
	e1, _ := tb.Get(tuple(1))
	tb.Update(&ctx, tuple(2), 64)
	tb.Update(&ctx, tuple(1), 64)
	e2, _ := tb.Get(tuple(1))
	if e2.LastSeen <= e1.LastSeen {
		t.Fatalf("LastSeen did not advance: %d then %d", e1.LastSeen, e2.LastSeen)
	}
}

func TestCollisionEvictsStalest(t *testing.T) {
	// A 2-slot table forces collisions quickly: after many distinct flows,
	// evictions must occur and the table stays consistent.
	tb := newTable(2)
	var ctx click.Ctx
	for i := uint32(0); i < 100; i++ {
		tb.Update(&ctx, tuple(i), 64)
	}
	if _, ok := tb.Get(tuple(0)); ok {
		t.Fatal("the first flow's record survived 99 later flows in 2 slots")
	}
	if occ := tb.Occupied(); occ > 2 {
		t.Fatalf("occupied = %d > capacity", occ)
	}
}

func TestUpdateEmitsLineTrace(t *testing.T) {
	tb := newTable(1024)
	var ctx click.Ctx
	tb.Update(&ctx, tuple(3), 64)
	var loads, stores int
	fn := hw.RegisterFunc("flow_statistics")
	for _, op := range ctx.Ops {
		switch op.Kind {
		case hw.OpLoad:
			loads++
		case hw.OpStore:
			stores++
		}
		if op.Func != fn {
			t.Fatalf("op %+v not attributed to flow_statistics", op)
		}
	}
	// A fresh flow costs one key-line probe and two stores (key line and
	// stats line of the new record).
	if loads < 1 || stores != 2 {
		t.Fatalf("trace: %d loads / %d stores, want ≥1 / 2", loads, stores)
	}
}

func TestSlotsAreLinePadded(t *testing.T) {
	tb := newTable(16)
	a0 := tb.region.Addr(0)
	a1 := tb.region.Addr(1)
	if hw.LineOf(a0) == hw.LineOf(a1) {
		t.Fatal("adjacent slots share a line; padding missing")
	}
}

// Property: packet and byte counts per flow match a reference map count,
// as long as the table is big enough to avoid evictions.
func TestCountsMatchReferenceQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tb := newTable(4096)
		var ctx click.Ctx
		ref := make(map[netpkt.FiveTuple]uint64)
		for i := 0; i < 500; i++ {
			k := tuple(uint32(r.Intn(64)))
			tb.Update(&ctx, k, 64)
			ref[k]++
			ctx.Ops = ctx.Ops[:0]
		}
		if tb.Occupied() < len(ref) {
			return true // an eviction voids the comparison; not expected at this load
		}
		for k, want := range ref {
			e, ok := tb.Get(k)
			if !ok || e.Packets != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestElementProcessesPackets(t *testing.T) {
	tb := newTable(1024)
	el := &Element{Table: tb}
	var ctx click.Ctx

	b := make([]byte, 64)
	netpkt.WriteIPv4(b, netpkt.IPv4Header{TotalLen: 64, TTL: 64, Proto: netpkt.ProtoUDP, Src: 1, Dst: 2})
	p := &click.Packet{Data: b, Addr: 0x4000}
	if v := el.Process(&ctx, p); v != click.Continue {
		t.Fatalf("verdict = %v", v)
	}
	if e, ok := tb.Get(netpkt.FiveTuple{Src: 1, Dst: 2, Proto: netpkt.ProtoUDP}); !ok || e.Packets != 1 || e.Bytes != 64 {
		t.Fatalf("flow record %+v (found %v), want 1 packet / 64 bytes", e, ok)
	}
}

func TestElementDropsUnparseable(t *testing.T) {
	el := &Element{Table: newTable(64)}
	var ctx click.Ctx
	p := &click.Packet{Data: make([]byte, 10), Addr: 0}
	if v := el.Process(&ctx, p); v != click.Drop {
		t.Fatalf("verdict = %v, want drop", v)
	}
}

func TestNewTableValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTable(0)
}

// TestEntryIsFortyBytes: a record carries no in-use flag beside its
// Packets count, so a paper-scale table's 131 072 slots take 40 bytes
// each on the host, not 48.
func TestEntryIsFortyBytes(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 40 {
		t.Fatalf("Entry is %d bytes, want 40", n)
	}
}
