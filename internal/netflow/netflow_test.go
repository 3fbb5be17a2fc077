package netflow

import (
	"math"
	stdruntime "runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"pktpredict/internal/click"
	"pktpredict/internal/flowtab"
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
	tb := newTable(100000)
	if got, idx := tb.tab.Lines().Count, tb.index.Count; got != 131072 || idx != 131072 {
		t.Fatalf("slots = %d, index entries = %d, want 131072 each", got, idx)
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
	if e.Val.Packets != 2 || e.Val.Bytes != 164 {
		t.Fatalf("entry = %+v, want 2 pkts / 164 bytes", e)
	}
	if tb.Taken() != 1 {
		t.Fatalf("%d records for one flow, want 1", tb.Taken())
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
	if e2.Seen <= e1.Seen {
		t.Fatalf("Seen did not advance: %d then %d", e1.Seen, e2.Seen)
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
	if occ := tb.Taken(); occ > 2 {
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
	a0 := tb.tab.Lines().Addr(0)
	a1 := tb.tab.Lines().Addr(1)
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
		if tb.Taken() < len(ref) {
			return true // an eviction voids the comparison; not expected at this load
		}
		for k, want := range ref {
			e, ok := tb.Get(k)
			if !ok || e.Val.Packets != want {
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
	if e, ok := tb.Get(netpkt.FiveTuple{Src: 1, Dst: 2, Proto: netpkt.ProtoUDP}); !ok || e.Val.Packets != 1 || e.Val.Bytes != 64 {
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

// TestEntryIsFortyBytes: a record (key, recency stamp and Entry) carries
// no in-use flag (a slot is in use iff it was taken), so each live flow
// takes 40 bytes on the host, not 48.
func TestEntryIsFortyBytes(t *testing.T) {
	if n := unsafe.Sizeof(flowtab.Slot[netpkt.FiveTuple, Entry]{}); n != 40 {
		t.Fatalf("a flow record is %d bytes, want 40", n)
	}
}

// eagerEntry is a flow record as the table kept it before flowtab: key,
// counters and stamp in one struct, in use iff Packets is nonzero.
type eagerEntry struct {
	Key      netpkt.FiveTuple
	Packets  uint64
	Bytes    uint64
	LastSeen uint64
}

// eagerTable is the table as it was before its host side went sparse: a
// record for every slot, made up front, and its own probe loop. It is
// the oracle the table must match op for op.
type eagerTable struct {
	slots         []eagerEntry
	index, region mem.Region
	mask, clock   uint64
}

// eagerProbes bounds the oracle's probe chain.
const eagerProbes = 8

// newEagerTable lays the oracle out exactly as NewTable lays out a table
// on a fresh arena, so the two emit the same addresses.
func newEagerTable(capacity int) *eagerTable {
	arena := mem.NewArena(0)
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &eagerTable{
		slots:  make([]eagerEntry, size),
		index:  mem.NewRegion(arena, size, 8, false),
		region: mem.NewRegion(arena, size, hw.LineSize, true),
		mask:   uint64(size - 1),
	}
}

func (t *eagerTable) update(ctx *click.Ctx, key netpkt.FiveTuple, size int) *eagerEntry {
	old := ctx.SetFunc(fnFlowStats)
	defer ctx.SetFunc(old)
	t.clock++
	ctx.Compute(30, 28)
	idx := key.Hash() & t.mask
	ctx.Load(t.index.Addr(int(idx)))
	var victim *eagerEntry
	victimIdx := idx
	for probe := 0; probe < eagerProbes; probe++ {
		slot := &t.slots[idx]
		ctx.Load(t.region.Addr(int(idx)))
		ctx.Compute(4, 5)
		if slot.Packets != 0 && slot.Key == key {
			slot.Packets++
			slot.Bytes += uint64(size)
			slot.LastSeen = t.clock
			ctx.Store(t.region.Addr(int(idx)))
			return slot
		}
		if slot.Packets == 0 {
			victim, victimIdx = slot, idx
			break
		}
		if victim == nil || slot.LastSeen < victim.LastSeen {
			victim, victimIdx = slot, idx
		}
		idx = (idx + 1) & t.mask
	}
	*victim = eagerEntry{Key: key, Packets: 1, Bytes: uint64(size), LastSeen: t.clock}
	ctx.Store(t.index.Addr(int(victimIdx)))
	ctx.Store(t.region.Addr(int(victimIdx)))
	return victim
}

func (t *eagerTable) get(key netpkt.FiveTuple) (eagerEntry, bool) {
	idx := key.Hash() & t.mask
	for probe := 0; probe < eagerProbes && t.slots[idx].Packets != 0; probe++ {
		if t.slots[idx].Key == key {
			return t.slots[idx], true
		}
		idx = (idx + 1) & t.mask
	}
	return eagerEntry{}, false
}

func (t *eagerTable) occupied() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].Packets != 0 {
			n++
		}
	}
	return n
}

// getEager is Get in the oracle's record form.
func getEager(tb *Table, key netpkt.FiveTuple) (eagerEntry, bool) {
	s, ok := tb.Get(key)
	if !ok {
		return eagerEntry{}, false
	}
	return eagerEntry{Key: s.Key, Packets: s.Val.Packets, Bytes: s.Val.Bytes, LastSeen: s.Seen}, true
}

// TestUpdateMatchesEagerTable drives random flow sequences through the
// table and the eager oracle side by side, comparing the updated record,
// the ops, a lookup of a random flow after each update, and occupancy;
// at the end every oracle record must be found as it is. The 8- and
// 16-slot tables fill every probe chain, so most inserts evict the
// stalest record of a full chain; the larger ones mostly hit or insert.
func TestUpdateMatchesEagerTable(t *testing.T) {
	for _, c := range []struct{ slots, flows int }{{8, 40}, {16, 48}, {64, 96}, {1024, 3000}} {
		r := rng.New(uint64(c.slots))
		got, want := newTable(c.slots), newEagerTable(c.slots)
		var gctx, wctx click.Ctx
		for i := 0; i < 20*c.slots; i++ {
			key, size := tuple(uint32(r.Intn(c.flows))), 64+r.Intn(1400)
			got.Update(&gctx, key, size)
			w := want.update(&wctx, key, size)
			if g, ok := getEager(got, key); !ok || g != *w {
				t.Fatalf("%d slots, update %d: record %+v (found %v), want %+v", c.slots, i, g, ok, *w)
			}
			if !slices.Equal(gctx.Ops, wctx.Ops) {
				t.Fatalf("%d slots, update %d: ops %v, want %v", c.slots, i, gctx.Ops, wctx.Ops)
			}
			gctx.Ops, wctx.Ops = gctx.Ops[:0], wctx.Ops[:0]
			probe := tuple(uint32(r.Intn(c.flows)))
			ge, gok := getEager(got, probe)
			if we, wok := want.get(probe); ge != we || gok != wok {
				t.Fatalf("%d slots, after update %d: Get = %+v %v, want %+v %v", c.slots, i, ge, gok, we, wok)
			}
			if got.Taken() != want.occupied() {
				t.Fatalf("%d slots, update %d: %d slots taken, want %d", c.slots, i, got.Taken(), want.occupied())
			}
		}
		for i, w := range want.slots {
			if g, ok := getEager(got, w.Key); w.Packets != 0 && (!ok || g != w) {
				t.Fatalf("%d slots: slot %d's record %+v is %+v (found %v)", c.slots, i, w, g, ok)
			}
		}
	}
}

// TestTableHostMemoryFollowsFlows: a paper-size table holds its slot
// index and no record until a flow arrives, and then only records for
// the flows it has seen. TotalAlloc is process-wide, so the bound is on
// the smallest of several builds: a stray runtime allocation does not
// land in every one, an eager record array would.
func TestTableHostMemoryFollowsFlows(t *testing.T) {
	var before, after stdruntime.MemStats
	var tb *Table
	least := uint64(math.MaxUint64)
	for range 5 {
		stdruntime.ReadMemStats(&before)
		tb = newTable(100000)
		stdruntime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4*131072+1024 {
		t.Fatalf("a fresh 131 072-slot table allocated at least %d bytes in each of 5 builds, want at most 4 a slot + 1 KiB", least)
	}
	if tb.Taken() != 0 {
		t.Fatalf("a fresh table holds %d records", tb.Taken())
	}
	var ctx click.Ctx
	for i := uint32(0); i < 1000; i++ {
		tb.Update(&ctx, tuple(i), 64)
		ctx.Ops = ctx.Ops[:0]
	}
	if tb.Taken() != 1000 {
		t.Fatalf("1000 distinct flows took %d slots", tb.Taken())
	}
}
