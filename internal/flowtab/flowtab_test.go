package flowtab

import (
	"slices"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// find runs one Find with a fresh Ctx and returns its result and the
// addresses it loaded, in order.
func find(tb *Table[int, int], h uint64, key int) (v *int, slot int, hit bool, loads []hw.Addr) {
	var ctx click.Ctx
	v, slot, hit = tb.Find(&ctx, h, key)
	for _, op := range ctx.Ops {
		if op.Kind == hw.OpLoad {
			loads = append(loads, op.Addr)
		}
	}
	return v, slot, hit, loads
}

// lines returns the addresses of slots from..from+n-1, wrapping.
func lines(tb *Table[int, int], from, n int) []hw.Addr {
	var out []hw.Addr
	for i := range n {
		out = append(out, tb.Lines().Addr((from+i)%tb.Lines().Count))
	}
	return out
}

func TestSizeRoundsUpToPowerOfTwo(t *testing.T) {
	for _, c := range [][2]int{{1, 1}, {2, 2}, {3, 4}, {100, 128}, {100000, 131072}} {
		if got := Size(c[0]); got != c[1] {
			t.Fatalf("Size(%d) = %d, want %d", c[0], got, c[1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Size(0) did not panic")
		}
	}()
	Size(0)
}

// TestMissBindsFirstNeverTakenSlot: a miss probes past taken slots to
// the first never-taken one, wrapping at the end of the table, and binds
// its key there with a zero value; each probe is one load of the slot's
// line and one compare.
func TestMissBindsFirstNeverTakenSlot(t *testing.T) {
	tb := New[int, int](mem.NewArena(0), 16)
	if _, slot, hit, loads := find(tb, 14, 1); hit || slot != 14 || !slices.Equal(loads, lines(tb, 14, 1)) {
		t.Fatalf("first key: slot %d hit %v loads %#x, want slot 14, a miss, one load", slot, hit, loads)
	}
	if _, slot, _, _ := find(tb, 0, 2); slot != 0 {
		t.Fatalf("a key at an empty slot 0 bound slot %d", slot)
	}
	// Slot 14 is taken, so a second key whose chain starts there binds
	// 15, and a third wraps past the taken slot 0 to 1.
	v, slot, hit, loads := find(tb, 14, 3)
	if hit || slot != 15 || *v != 0 || !slices.Equal(loads, lines(tb, 14, 2)) {
		t.Fatalf("second key from 14: slot %d hit %v value %d loads %#x, want slot 15, a miss, 0, two loads", slot, hit, *v, loads)
	}
	*v = 33
	if _, slot, _, loads := find(tb, 14, 4); slot != 1 || !slices.Equal(loads, lines(tb, 14, 4)) {
		t.Fatalf("third key from 14: slot %d loads %#x, want slot 1 after four loads", slot, loads)
	}
	var ctx click.Ctx
	v, slot, hit = tb.Find(&ctx, 14, 3)
	if !hit || slot != 15 || *v != 33 {
		t.Fatalf("key 3 again: slot %d hit %v value %d, want slot 15, a hit, 33", slot, hit, *v)
	}
	if n := len(ctx.Ops); n != 4 || ctx.Ops[1] != (hw.Op{Kind: hw.OpCompute, Cycles: 4, Instrs: 5}) {
		t.Fatalf("a hit on the second probe emitted %v, want load, compare, load, compare", ctx.Ops)
	}
	if tb.Taken() != 4 {
		t.Fatalf("%d slots taken by 4 keys", tb.Taken())
	}
}

// fillChain binds keys 0..probes-1 to slots 0..probes-1 of a 16-slot
// table, in that order, so key 0 is the least recently found.
func fillChain(t *testing.T) *Table[int, int] {
	t.Helper()
	tb := New[int, int](mem.NewArena(0), 16)
	for k := range probes {
		v, slot, hit, _ := find(tb, 0, k)
		if hit || slot != k {
			t.Fatalf("key %d bound slot %d (hit %v), want %d", k, slot, hit, k)
		}
		*v = 100 + k
	}
	return tb
}

// TestFullChainEvictsLeastRecentlyFound: when every slot of a chain is
// taken, a miss loads all of them and takes the slot of the
// entry found least recently, giving its key a zero value; a hit
// refreshes an entry's recency.
func TestFullChainEvictsLeastRecentlyFound(t *testing.T) {
	tb := fillChain(t)
	for _, k := range []int{0, 3} { // key 1 is now the least recently found
		if v, _, hit, _ := find(tb, 0, k); !hit || *v != 100+k {
			t.Fatalf("refresh of key %d: hit %v value %d", k, hit, *v)
		}
	}
	for i, victim := range []int{1, 2, 4} {
		key := 1000 + i
		v, slot, hit, loads := find(tb, 0, key)
		if hit || slot != victim || *v != 0 || !slices.Equal(loads, lines(tb, 0, probes)) {
			t.Fatalf("overflow %d: slot %d hit %v value %d loads %#x, want key %d's slot %d, a miss, 0, %d loads",
				i, slot, hit, *v, loads, victim, victim, probes)
		}
		if _, ok := tb.Lookup(0, victim); ok {
			t.Fatalf("overflow %d: evicted key %d is still found", i, victim)
		}
		if s, ok := tb.Lookup(0, key); !ok || s.Key != key || s.Val != 0 {
			t.Fatalf("overflow %d: new key's record %+v (found %v)", i, s, ok)
		}
	}
	for _, k := range []int{0, 3, 5, 6, 7} {
		if s, ok := tb.Lookup(0, k); !ok || s.Val != 100+k {
			t.Fatalf("key %d, never least recently found, is gone (%+v, %v)", k, s, ok)
		}
	}
	if tb.Taken() != probes {
		t.Fatalf("%d slots taken, want the chain's %d", tb.Taken(), probes)
	}
}

// TestLookupLeavesRecencyAlone: Lookup reads a record without making it
// recent, so the entry it read is still the eviction victim.
func TestLookupLeavesRecencyAlone(t *testing.T) {
	tb := fillChain(t)
	before, ok := tb.Lookup(0, 0)
	if !ok || before.Key != 0 || before.Val != 100 {
		t.Fatalf("Lookup of key 0 = %+v, %v", before, ok)
	}
	if after, _ := tb.Lookup(0, 0); after != before {
		t.Fatalf("Lookup moved key 0's record from %+v to %+v", before, after)
	}
	if _, slot, _, _ := find(tb, 0, 1000); slot != 0 {
		t.Fatalf("overflow took slot %d, want key 0's slot 0: Lookup refreshed its recency", slot)
	}
	if _, ok := tb.Lookup(5, 1000); ok {
		t.Fatal("Lookup from another slot found a key its chain does not reach")
	}
}
