package dpi

import (
	"sync"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

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
	if tb.Occupied() != 2 {
		t.Fatalf("%d entries after three checks of two addresses, want 2", tb.Occupied())
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
	ips := sameBucketIPs(t, len(tb.slots), banProbes+2)
	var ctx click.Ctx
	// Fill one probe chain completely.
	for _, ip := range ips[:banProbes] {
		tb.Check(&ctx, ip)
	}
	// Refresh the oldest entry so it is no longer the LRU victim.
	if !tb.Check(&ctx, ips[0]) {
		t.Fatal("refresh of a live entry missed")
	}
	// Overflow the chain: the victim must be ips[1], now the oldest.
	if tb.Check(&ctx, ips[banProbes]) {
		t.Fatal("fresh address reported as repeat offender")
	}
	if tb.Occupied() != banProbes {
		t.Fatalf("%d entries after overflowing a full %d-slot chain, want %d (one evicted)", tb.Occupied(), banProbes, banProbes)
	}
	if tb.Contains(ips[1]) {
		t.Fatal("LRU entry survived the eviction")
	}
	for _, ip := range []uint32{ips[0], ips[2], ips[3], ips[banProbes]} {
		if !tb.Contains(ip) {
			t.Fatalf("entry %#x evicted out of LRU order", ip)
		}
	}
	// A second overflow must take the next-oldest, ips[2].
	tb.Check(&ctx, ips[banProbes+1])
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
	if len(tb.slots) != 128 {
		t.Fatalf("size = %d, want 128", len(tb.slots))
	}
	if want := uint64(128 * hw.LineSize); tb.SimBytes() != want {
		t.Fatalf("SimBytes = %d, want %d (one line per slot)", tb.SimBytes(), want)
	}

	// Check loads each line it probes, in chain order, and stores the one
	// it writes, all inside the table's region. An insert into an empty
	// chain probes and writes its first line.
	ips := sameBucketIPs(t, len(tb.slots), banProbes+1)
	first := int(banHash(ips[0]) & tb.mask)
	base, end := tb.region.Addr(0), tb.region.Addr(0)+hw.Addr(tb.SimBytes())
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
			if loads[i] != tb.region.Addr(slot) {
				t.Fatalf("%s: load %d at %#x, want slot %d's line %#x", what, i, loads[i], slot, tb.region.Addr(slot))
			}
		}
		if len(stores) != 1 || stores[0] != tb.region.Addr(written) {
			t.Fatalf("%s: stores %#x, want one to slot %d's line %#x", what, stores, written, tb.region.Addr(written))
		}
	}
	var ctx click.Ctx
	tb.Check(&ctx, ips[0])
	expect("insert", &ctx, []int{first}, first)
	for _, ip := range ips[1:banProbes] {
		tb.Check(&ctx, ip)
	}
	// A full chain probes all banProbes lines and overwrites the least
	// recently seen, ips[0]'s.
	ctx.Ops = ctx.Ops[:0]
	tb.Check(&ctx, ips[banProbes])
	chain := make([]int, banProbes)
	for i := range chain {
		chain[i] = (first + i) & int(tb.mask)
	}
	expect("eviction", &ctx, chain, first)
}

func TestBanTableConcurrentReadersUnderWriter(t *testing.T) {
	tb, err := NewBanTable(mem.NewArena(0), 256)
	if err != nil {
		t.Fatal(err)
	}
	const perWorker = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer, as in the dataplane
		defer wg.Done()
		var ctx click.Ctx
		r := rng.New(0xbad)
		for i := 0; i < perWorker; i++ {
			tb.Check(&ctx, uint32(r.Intn(512)))
			ctx.Ops = ctx.Ops[:0]
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) { // control-plane readers
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < perWorker; i++ {
				ip := uint32(r.Intn(512))
				if tb.Contains(ip) && !tb.Contains(ip) {
					// A live entry can be evicted between the two reads,
					// but never observed torn — Contains itself must stay
					// race-free, which is what -race checks here.
					continue
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
	if tb.Occupied() > len(tb.slots) {
		t.Fatalf("occupied %d exceeds size %d", tb.Occupied(), len(tb.slots))
	}
}
