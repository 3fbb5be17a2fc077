package obs

import (
	"math"
	"math/bits"
)

// LatHist is a log-bucketed latency histogram for end-to-end packet
// latencies measured in core-clock cycles. Buckets grow geometrically —
// each power-of-two octave is split into 8 linear sub-buckets, so bucket
// width is at most 12.5% of its lower bound and a quantile read off the
// geometric bucket midpoint is within ~6% of the exact value at any
// scale from 64 cycles to 2^30 cycles (underflow and overflow buckets
// catch the rest). That error bound is what makes the histogram safe to
// drive SLO decisions: a p99 estimate cannot be off by more than one
// bucket's width.
//
// LatHist is a plain value with no internal synchronisation: the runtime
// keeps one shard per stage (single writer, written only from the
// goroutine of the worker running it) and merges shards at control
// barriers, the same ownership discipline as hw.ElemCell. Observe is a few integer ops and never allocates.
type LatHist struct {
	counts [latBuckets]uint64
	count  uint64
}

// Bucket layout: values below 2^latMinExp share one underflow bucket,
// values at or above 2^latMaxExp one overflow bucket; in between, each
// octave [2^e, 2^(e+1)) is split into latSub equal sub-buckets.
const (
	latMinExp  = 6  // smallest resolved value: 64 cycles
	latMaxExp  = 30 // ~1.07e9 cycles; beyond that, overflow
	latSubBits = 3
	latSub     = 1 << latSubBits // sub-buckets per octave
	latBuckets = (latMaxExp-latMinExp)*latSub + 2
)

// latBucketOf maps a latency to its bucket index.
func latBucketOf(v uint64) int {
	if v < 1<<latMinExp {
		return 0
	}
	e := bits.Len64(v) - 1 // floor(log2 v) >= latMinExp
	if e >= latMaxExp {
		return latBuckets - 1
	}
	sub := int((v >> (uint(e) - latSubBits)) & (latSub - 1))
	return 1 + (e-latMinExp)*latSub + sub
}

// latBoundsOf returns bucket i's value range [lo, hi).
func latBoundsOf(i int) (lo, hi uint64) {
	switch {
	case i <= 0:
		return 0, 1 << latMinExp
	case i >= latBuckets-1:
		return 1 << latMaxExp, 1 << (latMaxExp + 1)
	}
	k := i - 1
	e := uint(latMinExp + k/latSub)
	sub := uint64(k % latSub)
	return (latSub + sub) << (e - latSubBits), (latSub + sub + 1) << (e - latSubBits)
}

// Observe records one latency.
//
//dataplane:hotpath
func (h *LatHist) Observe(v uint64) {
	h.counts[latBucketOf(v)]++
	h.count++
}

// Count returns the number of observations.
func (h *LatHist) Count() uint64 { return h.count }

// Merge adds other's observations into h.
func (h *LatHist) Merge(other *LatHist) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.count += other.count
}

// Sub returns the histogram of observations recorded since prev (a
// previously copied snapshot of h) — the per-window delta.
func (h *LatHist) Sub(prev *LatHist) LatHist {
	var d LatHist
	for i := range h.counts {
		d.counts[i] = h.counts[i] - prev.counts[i]
	}
	d.count = h.count - prev.count
	return d
}

// Quantile estimates the q-th quantile (q in [0,1]) in cycles: the
// geometric midpoint of the bucket holding the q-th observation. Returns
// 0 for an empty histogram; overflow-bucket quantiles report the
// overflow bound itself (the histogram cannot resolve beyond it).
func (h *LatHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, hi := latBoundsOf(i)
			if i == 0 {
				return float64(hi) / 2
			}
			if i == latBuckets-1 {
				return float64(lo)
			}
			return math.Sqrt(float64(lo) * float64(hi))
		}
	}
	lo, _ := latBoundsOf(latBuckets - 1)
	return float64(lo)
}

// CountOver estimates how many observations exceeded t cycles, linearly
// interpolating within the bucket t falls into. This is the SLO
// burn-rate numerator: packets over the latency target.
func (h *LatHist) CountOver(t uint64) uint64 {
	var n float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := latBoundsOf(i)
		switch {
		case lo >= t:
			n += float64(c)
		case hi <= t:
		default:
			n += float64(c) * float64(hi-t) / float64(hi-lo)
		}
	}
	return uint64(n + 0.5)
}
