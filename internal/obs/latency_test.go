package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLatBucketLayout(t *testing.T) {
	// Every representable value maps into a bucket whose bounds contain it.
	probes := []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<30 - 1, 1 << 30, 1 << 40}
	for _, v := range probes {
		i := latBucketOf(v)
		if i < 0 || i >= latBuckets {
			t.Fatalf("value %d maps to bucket %d outside [0,%d)", v, i, latBuckets)
		}
		lo, hi := latBoundsOf(i)
		if i == latBuckets-1 {
			if v < lo {
				t.Fatalf("overflow value %d below overflow bound %d", v, lo)
			}
			continue
		}
		if v < lo || v >= hi {
			t.Fatalf("value %d in bucket %d with bounds [%d,%d)", v, i, lo, hi)
		}
	}
	// Buckets tile the range with no gaps.
	for i := 0; i < latBuckets-1; i++ {
		_, hi := latBoundsOf(i)
		lo, _ := latBoundsOf(i + 1)
		if hi != lo {
			t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)", i, hi, i+1, lo)
		}
	}
}

// exactQuantile is the reference the histogram estimate is judged
// against: the ceil(q·n)-th order statistic, matching LatHist.Quantile's
// rank convention.
func exactQuantile(sorted []uint64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// TestLatHistQuantileError is the property test bounding the histogram's
// quantile estimate: with 8 linear sub-buckets per octave, a bucket is
// at most 9/8 wide relative to its lower bound, so a geometric-midpoint
// estimate is within ~6.1% of any exact quantile whose value lies in
// the resolved range [64, 2^30). The asserted bound of 7.5% leaves
// headroom without admitting a broken bucketer.
func TestLatHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() uint64{
		"uniform": func() uint64 { return 64 + uint64(rng.Int63n(1<<20)) },
		"exponential": func() uint64 {
			v := uint64(rng.ExpFloat64() * 50_000)
			if v < 64 {
				v = 64
			}
			return v
		},
		"lognormal": func() uint64 {
			v := uint64(math.Exp(rng.NormFloat64()*2 + 12))
			if v < 64 {
				v = 64
			}
			if v >= 1<<30 {
				v = 1<<30 - 1
			}
			return v
		},
		// Adversarial: values pinned just past power-of-two bucket edges,
		// where midpoint estimates are worst.
		"bucket-edges": func() uint64 {
			e := uint(6 + rng.Intn(24))
			return (uint64(1) << e) + uint64(rng.Int63n(3))
		},
		"bimodal": func() uint64 {
			if rng.Intn(2) == 0 {
				return 100 + uint64(rng.Int63n(50))
			}
			return 1_000_000 + uint64(rng.Int63n(500_000))
		},
	}
	quantiles := []float64{0.5, 0.9, 0.99, 0.999}
	for name, gen := range dists {
		var h LatHist
		vals := make([]uint64, 20_000)
		for i := range vals {
			v := gen()
			vals[i] = v
			h.Observe(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range quantiles {
			exact := exactQuantile(vals, q)
			got := h.Quantile(q)
			relErr := math.Abs(got-exact) / exact
			if relErr > 0.075 {
				t.Errorf("%s p%g: estimate %.0f vs exact %.0f (rel err %.2f%% > 7.5%%)",
					name, q*100, got, exact, relErr*100)
			}
		}
	}
}

func TestLatHistMergeSubCount(t *testing.T) {
	var a LatHist
	for i := uint64(0); i < 100; i++ {
		a.Observe(100 + i*37)
	}
	snap := a // value copy is the snapshot
	for i := uint64(0); i < 50; i++ {
		a.Observe(5000 + i*91)
	}
	d := a.Sub(&snap)
	if d.Count() != 50 {
		t.Fatalf("window delta count = %d, want 50", d.Count())
	}
	if got := d.Quantile(0.5); got < 5000 || got > 12_000 {
		t.Fatalf("delta p50 = %.0f, outside the window's value range", got)
	}
	var m LatHist
	m.Merge(&snap)
	m.Merge(&d)
	if m != a {
		t.Fatalf("merge(snapshot, delta) = %d observations %v, want %d %v", m.Count(), m.counts, a.Count(), a.counts)
	}
}

func TestLatHistCountOver(t *testing.T) {
	var h LatHist
	for i := 0; i < 1000; i++ {
		h.Observe(1000) // all in one bucket
	}
	if n := h.CountOver(100); n != 1000 {
		t.Fatalf("CountOver(100) = %d, want 1000 (all over)", n)
	}
	if n := h.CountOver(1 << 29); n != 0 {
		t.Fatalf("CountOver(huge) = %d, want 0", n)
	}
	// Threshold inside the occupied bucket: linear interpolation keeps the
	// estimate between the extremes.
	lo, hi := latBoundsOf(latBucketOf(1000))
	mid := (lo + hi) / 2
	if n := h.CountOver(mid); n == 0 || n == 1000 {
		t.Fatalf("CountOver(mid-bucket %d) = %d, want a partial count", mid, n)
	}
}

func TestLatHistEmptyAndClamping(t *testing.T) {
	var h LatHist
	if h.Quantile(0.99) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(1)       // underflow
	h.Observe(1 << 40) // overflow
	if got := h.Quantile(-1); got <= 0 {
		t.Fatalf("clamped q<0 returned %v", got)
	}
	if got := h.Quantile(2); got != float64(uint64(1)<<latMaxExp) {
		t.Fatalf("overflow quantile = %v, want the overflow bound %d", got, uint64(1)<<latMaxExp)
	}
}
