package hw

// Per-element cost attribution. FuncID covers the coarse per-function
// profile the paper's Figure 7 needs (at most 32 registered names,
// shared across every flow), but online profile-drift detection needs a
// second, finer axis: which *Click element* of which pipeline accrued
// the cycles and cache references of a control window. Elements are
// per-flow and unbounded in number, so instead of a global registry each
// flow owns a dense table of ElemCells and tags every emitted Op with a
// table slot (Op.Elem). Slot 0 is the flow's overhead slot — source
// pulls, ring manipulation, recycling, anything emitted outside an
// element's Process bracket — so the table's column sums reconcile
// exactly with the core's executed-cycle counters.
//
// The table is installed on a Core with SetElemTable and written only by
// the goroutine driving the core (the runtime re-installs it when a
// re-placement swap re-binds flows), read only at quantum barriers while
// workers are parked: single-writer, no atomics, and each cell is padded
// to one cache line so neighbouring slots never false-share. A cell's
// fields are unexported, so only this package's interpreter can write
// one; readers take ElemCost values with CopyCosts.

// ElemCost is one element's execution cost: cycles charged by every op
// tagged with the element's slot, and the L3 traffic those ops generated.
type ElemCost struct {
	Cycles   uint64
	L3Refs   uint64
	L3Hits   uint64
	L3Misses uint64
}

// Sub returns the element-wise difference c − prev, for window deltas.
func (c ElemCost) Sub(prev ElemCost) ElemCost {
	return ElemCost{
		Cycles:   c.Cycles - prev.Cycles,
		L3Refs:   c.L3Refs - prev.L3Refs,
		L3Hits:   c.L3Hits - prev.L3Hits,
		L3Misses: c.L3Misses - prev.L3Misses,
	}
}

// ElemCell is one element's live cost accumulator, padded to exactly one
// 64-byte cache line.
type ElemCell struct {
	cost ElemCost
	_    [4]uint64 // pad to one cache line
}

// CopyCosts copies the costs of cells into dst, min(len(dst),
// len(cells)) of them as copy does. Call it only while the table's core
// is not executing.
func CopyCosts(dst []ElemCost, cells []ElemCell) {
	for i := range min(len(dst), len(cells)) {
		dst[i] = cells[i].cost
	}
}

// SetElemTable installs (or, with nil, removes) the per-element
// attribution table for ops executed on this core. Ops index the table
// by Op.Elem, so every tagged op's slot must be < len(t); the table's
// owner keeps writing rights — call only while the core is not
// executing (setup, or a quantum barrier).
func (c *Core) SetElemTable(t []ElemCell) { c.elems = t }
