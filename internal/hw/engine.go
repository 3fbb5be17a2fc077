package hw

import "fmt"

// Flow is one packet-processing flow attached to a core. In the paper's
// configuration each receive queue's traffic — "a flow" — is pinned to
// exactly one core, which performs all processing for it (the "parallel"
// approach of Section 2.2).
type Flow struct {
	Label string
	Core  *Core

	src PacketSource
	ops []Op
	pos int

	done bool // source exhausted (EmitPacket returned no ops)
}

// Engine interleaves the execution traces of the attached flows in global
// virtual-time order: at every step the flow whose core has the smallest
// local clock executes its next micro-operation (and the computes behind
// it). Because shared-cache and memory-controller state is touched in
// (near) global time order, contention between co-runners is emergent.
type Engine struct {
	Platform *Platform
	Flows    []*Flow

	byCore map[int]*Flow
}

// NewEngine creates an engine over p with no flows attached.
func NewEngine(p *Platform) *Engine {
	return &Engine{Platform: p, byCore: make(map[int]*Flow)}
}

// Attach pins src to the core with the given global id. Attaching two
// flows to one core is an error: the modelled regime is one flow per core
// (Section 2.2 and Section 6 of the paper).
func (e *Engine) Attach(coreID int, label string, src PacketSource) *Flow {
	if coreID < 0 || coreID >= len(e.Platform.Cores) {
		panic(fmt.Sprintf("hw: core %d out of range [0,%d)", coreID, len(e.Platform.Cores)))
	}
	if _, dup := e.byCore[coreID]; dup {
		panic(fmt.Sprintf("hw: core %d already has a flow attached", coreID))
	}
	f := &Flow{Label: label, Core: e.Platform.Cores[coreID], src: src}
	e.Flows = append(e.Flows, f)
	e.byCore[coreID] = f
	return f
}

// step executes f's next op, refilling its op buffer from the source as
// needed and marking the flow done when the source is exhausted, then the
// packet's compute ops behind it while the clock is below limit: those
// touch nothing another flow sees (see docs/ARCHITECTURE.md).
func (e *Engine) step(f *Flow, limit uint64) {
	if f.pos >= len(f.ops) {
		f.ops = f.src.EmitPacket(f.ops[:0])
		f.pos = 0
		if len(f.ops) == 0 {
			f.done = true
			return
		}
	}
	f.Core.exec(f.ops[f.pos:f.pos+1], false)
	for f.pos++; f.pos < len(f.ops) && f.ops[f.pos].Kind == OpCompute && f.Core.clock < limit; f.pos++ {
		f.Core.exec(f.ops[f.pos:f.pos+1], false)
	}
	if f.pos >= len(f.ops) {
		f.Core.Counters.Packets++
	}
}

// runnable returns the attached flow with the smallest core clock that has
// not exhausted its source, or nil when none remain.
func (e *Engine) runnable(limit uint64) *Flow {
	var best *Flow
	for _, f := range e.Flows {
		if f.done || f.Core.clock >= limit {
			continue
		}
		if best == nil || f.Core.clock < best.Core.clock {
			best = f
		}
	}
	return best
}

// RunUntil advances every flow until its core's local clock reaches at
// least t (or its source is exhausted). Flows are interleaved in global
// virtual-time order throughout.
func (e *Engine) RunUntil(t uint64) {
	for f := e.runnable(t); f != nil; f = e.runnable(t) {
		e.step(f, t)
	}
}

// RunSeconds advances all flows by the given amount of virtual time from
// the current maximum core clock.
func (e *Engine) RunSeconds(s float64) {
	e.RunUntil(e.maxClock() + e.Platform.Cfg.SecondsToCycles(s))
}

func (e *Engine) maxClock() uint64 {
	var m uint64
	for _, f := range e.Flows {
		if f.Core.clock > m {
			m = f.Core.clock
		}
	}
	return m
}

// Snapshot returns a copy of every flow's counters, index-aligned with
// e.Flows.
func (e *Engine) Snapshot() []Counters {
	out := make([]Counters, len(e.Flows))
	for i, f := range e.Flows {
		out[i] = f.Core.Counters
	}
	return out
}

// MeasureWindow runs a warm-up period followed by a measurement window
// (both in virtual seconds) and returns per-flow statistics for the
// window. This mirrors the paper's methodology: measure steady-state
// throughput, not cold-cache transients.
func (e *Engine) MeasureWindow(warmup, window float64) []FlowStats {
	e.RunSeconds(warmup)
	return e.Measure(window)
}

// Measure advances all flows by window virtual seconds from wherever
// the engine stands and returns per-flow statistics for that window: the
// one counter-delta primitive, for callers that place windows themselves.
func (e *Engine) Measure(window float64) []FlowStats {
	before := e.Snapshot()
	start := make([]uint64, len(e.Flows))
	for i, f := range e.Flows {
		start[i] = f.Core.clock
	}
	e.RunSeconds(window)
	stats := make([]FlowStats, len(e.Flows))
	for i, f := range e.Flows {
		delta := f.Core.Counters.Sub(before[i])
		elapsed := f.Core.clock - start[i]
		stats[i] = NewFlowStats(f.Label, delta, elapsed, e.Platform.Cfg.ClockHz)
	}
	return stats
}
