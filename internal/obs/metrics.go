package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Inc and Add are
// single atomic adds: zero allocations, no locks, so the control barrier
// publishes into it without allocating while a scrape reads it.
type Counter struct {
	v atomic.Uint64
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
}

// Set stores v.
//
//dataplane:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
