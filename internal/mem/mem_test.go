package mem

import (
	"testing"
	"testing/quick"

	"pktpredict/internal/hw"
	"pktpredict/internal/rng"
)

func TestArenaDomainSeparation(t *testing.T) {
	a0 := NewArena(0)
	a1 := NewArena(1)
	p0 := a0.Alloc(4096, 0)
	p1 := a1.Alloc(4096, 0)
	if hw.DomainOf(p0) != 0 || hw.DomainOf(p1) != 1 {
		t.Fatalf("domains = %d, %d; want 0, 1", hw.DomainOf(p0), hw.DomainOf(p1))
	}
}

func TestArenaAllocationsDisjoint(t *testing.T) {
	a := NewArena(0)
	p1 := a.Alloc(100, 0)
	p2 := a.Alloc(100, 0)
	if p2 < p1+100 {
		t.Fatalf("allocations overlap: %#x then %#x", p1, p2)
	}
}

func TestArenaAlignment(t *testing.T) {
	a := NewArena(0)
	a.Alloc(3, 1)
	p := a.Alloc(64, 64)
	if p%64 != 0 {
		t.Fatalf("allocation %#x not 64-byte aligned", p)
	}
	if q := a.Alloc(10, 0); q%hw.LineSize != 0 {
		t.Fatalf("default alignment should be line-sized; got %#x", q)
	}
}

func TestArenaBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two alignment")
		}
	}()
	NewArena(0).Alloc(8, 3)
}

func TestArenaUsed(t *testing.T) {
	a := NewArena(2)
	a.Alloc(128, 64)
	if a.Used() != 128 {
		t.Fatalf("Used = %d, want 128", a.Used())
	}
}

func TestRegionPacked(t *testing.T) {
	a := NewArena(0)
	r := NewRegion(a, 16, 16, false) // 4 elements per line
	if r.Addr(0)+16 != r.Addr(1) {
		t.Fatal("packed elements must be contiguous")
	}
	if hw.LineOf(r.Addr(0)) != hw.LineOf(r.Addr(3)) {
		t.Fatal("elements 0..3 must share a cache line when packed")
	}
	if r.Size() != 4*hw.LineSize {
		t.Fatalf("16 x 16B packed = %d bytes, want 4 lines", r.Size())
	}
}

func TestRegionPadded(t *testing.T) {
	a := NewArena(0)
	r := NewRegion(a, 4, 16, true)
	if hw.LineOf(r.Addr(0)) == hw.LineOf(r.Addr(1)) {
		t.Fatal("padded elements must not share cache lines")
	}
	if r.Size() != 4*hw.LineSize {
		t.Fatalf("padded size = %d, want %d", r.Size(), 4*hw.LineSize)
	}
}

func TestRegionBoundsPanic(t *testing.T) {
	a := NewArena(0)
	r := NewRegion(a, 4, 8, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	r.Addr(4)
}

// Property: all allocations from one arena are disjoint and belong to the
// arena's domain.
func TestArenaDisjointQuick(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewArena(1)
		var prevEnd hw.Addr
		for _, s := range sizes {
			size := uint64(s%4096) + 1
			p := a.Alloc(size, 8)
			if p < prevEnd || hw.DomainOf(p) != 1 {
				return false
			}
			prevEnd = p + hw.Addr(size)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaBindingsRecordLabelledSpans(t *testing.T) {
	a := NewArena(1)
	a.SetLabel("table")
	p1 := a.Alloc(100, 8)
	a.Alloc(50, 8) // same label, same epoch: coalesces
	a.SetLabel("ring")
	p3 := a.Alloc(64, 64)

	bs := a.Bindings()
	if len(bs) != 2 {
		t.Fatalf("bindings = %+v, want 2 spans", bs)
	}
	if bs[0].Label != "table" || bs[0].Base != p1 {
		t.Fatalf("first binding %+v", bs[0])
	}
	if got := bs[0].Base + hw.Addr(bs[0].Size); got < p1+150 {
		t.Fatalf("coalesced span ends at %#x, want ≥ %#x", got, p1+150)
	}
	if bs[1].Label != "ring" || bs[1].Base != p3 || bs[1].Size != 64 {
		t.Fatalf("second binding %+v", bs[1])
	}
	if hw.DomainOf(bs[0].Base) != 1 || hw.DomainOf(bs[1].Base) != 1 {
		t.Fatalf("bindings report wrong domain: %+v", bs)
	}
}

func TestArenaSetLabelSealsCoalescing(t *testing.T) {
	a := NewArena(0)
	a.SetLabel("x")
	a.Alloc(10, 8)
	// Re-setting the same label must still open a new span: two
	// structures that share a label string are not one structure.
	a.SetLabel("x")
	a.Alloc(10, 8)
	if got := len(a.Bindings()); got != 2 {
		t.Fatalf("bindings = %d, want 2 (SetLabel must seal)", got)
	}
}

func TestArenaBindingsSinceBracketsBuilds(t *testing.T) {
	a := NewArena(0)
	a.SetLabel("first")
	a.Alloc(10, 8)
	mark := a.Mark()
	a.SetLabel("second")
	a.Alloc(20, 8)
	bs := a.BindingsSince(mark)
	if len(bs) != 1 || bs[0].Label != "second" || bs[0].Size != 20 {
		t.Fatalf("bindings since mark = %+v", bs)
	}
	// A post-mark allocation under the pre-mark label must not extend the
	// pre-mark span (Mark seals).
	a.SetLabel("first")
	a.Alloc(5, 8)
	if got := len(a.BindingsSince(mark)); got != 2 {
		t.Fatalf("bindings since mark = %d, want 2", got)
	}
}

func TestArenaReserveAndRecord(t *testing.T) {
	a := NewArena(0)
	a.SetLabel("sparse")
	base := a.Reserve(1<<20, hw.LineSize)
	if len(a.Bindings()) != 0 {
		t.Fatalf("Reserve recorded a binding: %+v", a.Bindings())
	}
	// A later allocation must not overlap the reservation.
	p := a.Alloc(64, 64)
	if p < base+(1<<20) {
		t.Fatalf("allocation %#x overlaps reservation [%#x,%#x)", p, base, base+(1<<20))
	}
	a.Record(base, 4096)
	a.Record(base, 0) // dropped
	bs := a.Bindings()
	if len(bs) != 2 {
		t.Fatalf("bindings = %+v, want alloc + explicit record", bs)
	}
	last := bs[len(bs)-1]
	if last.Base != base || last.Size != 4096 || last.Label != "sparse" {
		t.Fatalf("recorded binding %+v", last)
	}
}

// TestSlotsMatchEagerArray drives random takes, reads and writes through
// Slots and through the eager array it replaces (a value and an in-use
// flag for every slot). Take must hand out a zeroed value on a slot's
// first take and the same value after; Get must never take.
func TestSlotsMatchEagerArray(t *testing.T) {
	const n = 4096
	r := rng.New(7)
	s := NewSlots[[2]uint64](n)
	vals, used := make([][2]uint64, n), make([]bool, n)
	taken := 0
	for step := 0; step < 20000; step++ {
		i := r.Intn(n)
		if r.Intn(2) == 0 {
			v := s.Get(i)
			if (v == nil) != !used[i] || v != nil && *v != vals[i] {
				t.Fatalf("step %d: Get(%d) = %v, want %v (used %v)", step, i, v, vals[i], used[i])
			}
			continue
		}
		v := s.Take(i)
		if !used[i] {
			used[i] = true
			taken++
		}
		if *v != vals[i] {
			t.Fatalf("step %d: Take(%d) = %v, want %v", step, i, *v, vals[i])
		}
		vals[i] = [2]uint64{r.Uint64(), uint64(step)}
		*v = vals[i]
		if s.Taken() != taken {
			t.Fatalf("step %d: %d slots taken, want %d", step, s.Taken(), taken)
		}
	}
}

// TestSlotsHoldOnlyWhatIsTaken: n slots cost their index until a slot is
// taken, and then a chunk per slotChunk slots taken.
func TestSlotsHoldOnlyWhatIsTaken(t *testing.T) {
	s := NewSlots[[40]byte](131072)
	if len(s.chunks) != 0 || cap(s.pos) != 131072 {
		t.Fatalf("fresh slots hold %d chunks and a %d-entry index", len(s.chunks), cap(s.pos))
	}
	first := s.Take(37)
	for n := 2; n <= 3*slotChunk+1; n++ {
		s.Take(n * 37)
		if want := (n + slotChunk - 1) / slotChunk; len(s.chunks) != want {
			t.Fatalf("%d slots taken in %d chunks, want %d", n, len(s.chunks), want)
		}
	}
	if s.Get(37) != first {
		t.Fatal("a value moved when its store grew")
	}
}
