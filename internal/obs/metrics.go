package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Inc and Add are
// single atomic adds on a cache-line padded cell: zero allocations, no
// locks, safe to call from a worker's packet loop. The padding keeps
// per-worker series (the registry's sharding idiom: one series per
// worker label) from false-sharing a line.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
//
//dataplane:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//dataplane:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float metric. Set is atomic on the float's bit
// pattern: zero allocations, readable mid-update from any goroutine.
type Gauge struct {
	bits atomic.Uint64
	_    [56]byte
}

// Set stores v.
//
//dataplane:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf bucket) and tracks their sum. Observe is a linear bucket
// scan plus three atomics: zero allocations on the hot path.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // one per bound, plus the +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records v.
//
//dataplane:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }
