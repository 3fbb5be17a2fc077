package dpi

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"pktpredict/internal/click"
	"pktpredict/internal/flowtab"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

// chainLen is flowtab's probe bound: the chain length the tests fill.
const chainLen = 8

// sameBucketIPs brute-forces n distinct addresses whose probe chains all
// start at the same slot of a size-slot table.
func sameBucketIPs(t *testing.T, size, n int) []uint32 {
	t.Helper()
	mask := uint64(size - 1)
	want := banHash(1) & mask
	out := []uint32{1}
	for ip := uint32(2); len(out) < n; ip++ {
		if banHash(ip)&mask == want {
			out = append(out, ip)
		}
		if ip == 0 {
			t.Fatal("address space exhausted hunting for colliding IPs")
		}
	}
	return out
}

func TestBanTableRepeatOffender(t *testing.T) {
	tb, err := NewBanTable(mem.NewArena(0), 64)
	if err != nil {
		t.Fatal(err)
	}
	var ctx click.Ctx
	if tb.Check(&ctx, 0x0a000001) {
		t.Fatal("first sighting reported as repeat offender")
	}
	if !tb.Check(&ctx, 0x0a000001) {
		t.Fatal("second sighting not reported as repeat offender")
	}
	if tb.Check(&ctx, 0x0a000002) {
		t.Fatal("unrelated address reported as repeat offender")
	}
	if tb.Taken() != 2 {
		t.Fatalf("%d entries after three checks of two addresses, want 2", tb.Taken())
	}
	if !tb.Contains(0x0a000001) || !tb.Contains(0x0a000002) || tb.Contains(0x0a000003) {
		t.Fatal("Contains disagrees with Check history")
	}
}

func TestBanTableEvictsLeastRecentlySeen(t *testing.T) {
	tb, err := NewBanTable(mem.NewArena(0), 64)
	if err != nil {
		t.Fatal(err)
	}
	ips := sameBucketIPs(t, tb.tab.Lines().Count, chainLen+2)
	var ctx click.Ctx
	// Fill one probe chain completely.
	for _, ip := range ips[:chainLen] {
		tb.Check(&ctx, ip)
	}
	// Refresh the oldest entry so it is no longer the LRU victim.
	if !tb.Check(&ctx, ips[0]) {
		t.Fatal("refresh of a live entry missed")
	}
	// Overflow the chain: the victim must be ips[1], now the oldest.
	if tb.Check(&ctx, ips[chainLen]) {
		t.Fatal("fresh address reported as repeat offender")
	}
	if tb.Taken() != chainLen {
		t.Fatalf("%d entries after overflowing a full %d-slot chain, want %d (one evicted)", tb.Taken(), chainLen, chainLen)
	}
	if tb.Contains(ips[1]) {
		t.Fatal("LRU entry survived the eviction")
	}
	for _, ip := range []uint32{ips[0], ips[2], ips[3], ips[chainLen]} {
		if !tb.Contains(ip) {
			t.Fatalf("entry %#x evicted out of LRU order", ip)
		}
	}
	// A second overflow must take the next-oldest, ips[2].
	tb.Check(&ctx, ips[chainLen+1])
	if tb.Contains(ips[2]) {
		t.Fatal("second eviction did not follow LRU order")
	}
	if !tb.Contains(ips[3]) {
		t.Fatal("second eviction took the wrong victim")
	}
}

func TestBanTableTraceAndFootprint(t *testing.T) {
	arena := mem.NewArena(0)
	tb, err := NewBanTable(arena, 100) // rounds up to 128
	if err != nil {
		t.Fatal(err)
	}
	lines := tb.tab.Lines()
	if lines.Count != 128 {
		t.Fatalf("size = %d, want 128", lines.Count)
	}
	if want := uint64(128 * hw.LineSize); tb.SimBytes() != want {
		t.Fatalf("SimBytes = %d, want %d (one line per slot)", tb.SimBytes(), want)
	}

	// Check loads each line it probes, in chain order, and stores the one
	// it writes, all inside the table's region. An insert into an empty
	// chain probes and writes its first line.
	ips := sameBucketIPs(t, lines.Count, chainLen+1)
	first := int(banHash(ips[0])) & (lines.Count - 1)
	base, end := lines.Addr(0), lines.Addr(0)+hw.Addr(tb.SimBytes())
	expect := func(what string, ctx *click.Ctx, probed []int, written int) {
		t.Helper()
		var loads, stores []hw.Addr
		for _, op := range ctx.Ops {
			switch op.Kind {
			case hw.OpLoad:
				loads = append(loads, op.Addr)
			case hw.OpStore:
				stores = append(stores, op.Addr)
			}
		}
		for _, a := range append(append([]hw.Addr(nil), loads...), stores...) {
			if a < base || a >= end {
				t.Fatalf("%s: access %#x outside the region [%#x,%#x)", what, a, base, end)
			}
		}
		if len(loads) != len(probed) {
			t.Fatalf("%s: %d loads, want one per probed line (%d)", what, len(loads), len(probed))
		}
		for i, slot := range probed {
			if loads[i] != lines.Addr(slot) {
				t.Fatalf("%s: load %d at %#x, want slot %d's line %#x", what, i, loads[i], slot, lines.Addr(slot))
			}
		}
		if len(stores) != 1 || stores[0] != lines.Addr(written) {
			t.Fatalf("%s: stores %#x, want one to slot %d's line %#x", what, stores, written, lines.Addr(written))
		}
	}
	var ctx click.Ctx
	tb.Check(&ctx, ips[0])
	expect("insert", &ctx, []int{first}, first)
	for _, ip := range ips[1:chainLen] {
		tb.Check(&ctx, ip)
	}
	// A full chain probes all chainLen lines and overwrites the least
	// recently seen, ips[0]'s.
	ctx.Ops = ctx.Ops[:0]
	tb.Check(&ctx, ips[chainLen])
	chain := make([]int, chainLen)
	for i := range chain {
		chain[i] = (first + i) & (lines.Count - 1)
	}
	expect("eviction", &ctx, chain, first)
}

// TestBanEntryIsSixteenBytes: an entry (address and recency stamp, no
// value) takes 16 bytes on the host, the stamp leading so the address
// and the empty value pack into the second word.
func TestBanEntryIsSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(flowtab.Slot[uint32, struct{}]{}); n != 16 {
		t.Fatalf("a ban entry is %d bytes, want 16", n)
	}
}

// atomicBanTable is the ban table as it was before flowtab: its own
// probe loop over entries packed into single atomic words — address(32)
// | LRU stamp(32), zero meaning empty — so that a concurrent reader
// would never see a torn entry, though only tests ever read it. It is
// the oracle the table must match op for op.
type atomicBanTable struct {
	slots  []atomic.Uint64
	region mem.Region
	mask   uint64
	clock  uint32
}

// newAtomicBanTable lays the oracle out exactly as NewBanTable lays out a
// table on a fresh arena, so the two emit the same addresses.
func newAtomicBanTable(capacity int) *atomicBanTable {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &atomicBanTable{
		slots:  make([]atomic.Uint64, size),
		region: mem.NewRegion(mem.NewArena(0), size, hw.LineSize, true),
		mask:   uint64(size - 1),
	}
}

func (t *atomicBanTable) occupied() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].Load() != 0 {
			n++
		}
	}
	return n
}

func (t *atomicBanTable) check(ctx *click.Ctx, ip uint32) bool {
	t.clock++
	if t.clock == 0 { // stamp 0 means empty; skip it on wrap
		t.clock = 1
	}
	ctx.Compute(banHashCompute, banHashInstrs)
	idx := banHash(ip) & t.mask
	victim := idx
	victimStamp := ^uint32(0)
	for probe := 0; probe < chainLen; probe++ {
		packed := t.slots[idx].Load()
		ctx.Load(t.region.Addr(int(idx)))
		ctx.Compute(4, 5)
		if packed == 0 {
			t.slots[idx].Store(uint64(ip)<<32 | uint64(t.clock))
			ctx.Store(t.region.Addr(int(idx)))
			return false
		}
		if uint32(packed>>32) == ip {
			t.slots[idx].Store(uint64(ip)<<32 | uint64(t.clock))
			ctx.Store(t.region.Addr(int(idx)))
			return true
		}
		if stamp := uint32(packed); stamp < victimStamp {
			victim, victimStamp = idx, stamp
		}
		idx = (idx + 1) & t.mask
	}
	t.slots[victim].Store(uint64(ip)<<32 | uint64(t.clock))
	ctx.Store(t.region.Addr(int(victim)))
	return false
}

func (t *atomicBanTable) contains(ip uint32) bool {
	idx := banHash(ip) & t.mask
	for probe := 0; probe < chainLen; probe++ {
		packed := t.slots[idx].Load()
		if packed == 0 {
			return false
		}
		if uint32(packed>>32) == ip {
			return true
		}
		idx = (idx + 1) & t.mask
	}
	return false
}

// TestCheckMatchesAtomicTable drives random addresses through the table
// and the atomic oracle side by side, comparing verdicts, ops, occupancy
// and a membership query of a random address after each check. The 8-
// and 16-slot tables fill every probe chain, so most first sightings
// evict the least recently seen address of a full chain; the larger ones
// mostly hit or bind a free slot.
func TestCheckMatchesAtomicTable(t *testing.T) {
	for _, c := range []struct{ slots, addrs int }{{8, 40}, {16, 48}, {64, 96}, {1024, 3000}} {
		t.Run(fmt.Sprint(c.slots), func(t *testing.T) {
			r := rng.New(uint64(c.slots))
			got, err := NewBanTable(mem.NewArena(0), c.slots)
			if err != nil {
				t.Fatal(err)
			}
			want := newAtomicBanTable(c.slots)
			var gctx, wctx click.Ctx
			for i := 0; i < 100*c.slots; i++ {
				ip := uint32(r.Intn(c.addrs))
				if g, w := got.Check(&gctx, ip), want.check(&wctx, ip); g != w {
					t.Fatalf("check %d of %#x: verdict %v, want %v", i, ip, g, w)
				}
				if !slices.Equal(gctx.Ops, wctx.Ops) {
					t.Fatalf("check %d of %#x: ops %v, want %v", i, ip, gctx.Ops, wctx.Ops)
				}
				gctx.Ops, wctx.Ops = gctx.Ops[:0], wctx.Ops[:0]
				if g, w := got.Taken(), want.occupied(); g != w {
					t.Fatalf("check %d: %d entries, want %d", i, g, w)
				}
				probe := uint32(r.Intn(c.addrs))
				if g, w := got.Contains(probe), want.contains(probe); g != w {
					t.Fatalf("after check %d: Contains(%#x) = %v, want %v", i, probe, g, w)
				}
			}
		})
	}
}
