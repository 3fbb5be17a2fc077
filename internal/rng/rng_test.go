package rng

import "testing"

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between adjacent seeds", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnCoversRange(t *testing.T) {
	r := New(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Intn(8)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("Intn(8) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean = %v, want ≈ 0.5", mean)
	}
}

func TestFillDeterministicAndFull(t *testing.T) {
	a := make([]byte, 37)
	b := make([]byte, 37)
	New(9).Fill(a)
	New(9).Fill(b)
	if string(a) != string(b) {
		t.Fatal("Fill not deterministic")
	}
	zero := 0
	for _, v := range a {
		if v == 0 {
			zero++
		}
	}
	if zero > 10 {
		t.Fatalf("Fill left %d/37 zero bytes; looks unfilled", zero)
	}
}

func TestUniformity(t *testing.T) {
	r := New(11)
	buckets := make([]int, 16)
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Uint64()%16]++
	}
	for i, c := range buckets {
		if c < n/16*9/10 || c > n/16*11/10 {
			t.Fatalf("bucket %d has %d of %d; distribution skewed", i, c, n)
		}
	}
}

// TestAtMatchesSequentialDraws: At(seed, n) is New(seed) after n draws —
// the jump and the stream agree on the next draws, for seeds that wrap
// the state too.
func TestAtMatchesSequentialDraws(t *testing.T) {
	for _, seed := range []uint64{0, 0xf10e5, ^uint64(0)} {
		seq := New(seed)
		drawn := uint64(0)
		for _, n := range []uint64{0, 1, 5, 1<<20 + 3} {
			for ; drawn < n; drawn++ {
				seq.Uint64()
			}
			at := At(seed, n)
			ahead := *seq
			for k := 0; k < 4; k++ {
				if got, want := at.Uint64(), ahead.Uint64(); got != want {
					t.Fatalf("seed %#x: At(n=%d) draw %d = %#x, sequential %#x", seed, n, k, got, want)
				}
			}
		}
	}
}
