package click

import "pktpredict/internal/hw"

// Ctx accumulates the micro-operation trace of one packet's processing.
// Elements call Load/Store/Compute as they perform the corresponding real
// work; each op is attributed to the current function for per-function
// profiling (Figure 7 of the paper) and to the current element slot for
// per-element online cost accounting (hw.ElemCell). The pipeline walker
// brackets every Process call with SetElem, so element authors never
// touch the slot; ops emitted outside a bracket carry slot 0, the flow's
// overhead slot.
type Ctx struct {
	Ops  []hw.Op
	fn   hw.FuncID
	elem uint16
}

// SetFunc switches the attribution function and returns the previous one,
// so callers can restore it:
//
//	defer ctx.SetFunc(ctx.SetFunc(myFunc))
func (c *Ctx) SetFunc(f hw.FuncID) hw.FuncID {
	old := c.fn
	c.fn = f
	return old
}

// SetElem switches the element attribution slot and returns the previous
// one, mirroring SetFunc's restore idiom. Slot 0 is the flow's overhead
// slot.
func (c *Ctx) SetElem(e uint16) uint16 {
	old := c.elem
	c.elem = e
	return old
}

// Elem returns the current element attribution slot.
func (c *Ctx) Elem() uint16 { return c.elem }

// Load emits one memory read of the line containing a.
//
//dataplane:hotpath
func (c *Ctx) Load(a hw.Addr) {
	c.Ops = append(c.Ops, hw.Op{Kind: hw.OpLoad, Addr: a, Func: c.fn, Elem: c.elem})
}

// Store emits one memory write of the line containing a.
//
//dataplane:hotpath
func (c *Ctx) Store(a hw.Addr) {
	c.Ops = append(c.Ops, hw.Op{Kind: hw.OpStore, Addr: a, Func: c.fn, Elem: c.elem})
}

// LoadBytes emits one read per cache line of [a, a+n).
//
//dataplane:hotpath
func (c *Ctx) LoadBytes(a hw.Addr, n int) {
	if n <= 0 {
		return
	}
	for line, last := hw.LineOf(a), hw.LineOf(a+hw.Addr(n)-1); line <= last; line += hw.LineSize {
		c.Load(line)
	}
}

// StoreBytes emits one write per cache line of [a, a+n).
//
//dataplane:hotpath
func (c *Ctx) StoreBytes(a hw.Addr, n int) {
	if n <= 0 {
		return
	}
	for line, last := hw.LineOf(a), hw.LineOf(a+hw.Addr(n)-1); line <= last; line += hw.LineSize {
		c.Store(line)
	}
}

// DMABytes emits one NIC direct-cache-access write per line of [a, a+n):
// the line lands in the socket's L3 and costs the core nothing.
//
//dataplane:hotpath
func (c *Ctx) DMABytes(a hw.Addr, n int) {
	if n <= 0 {
		return
	}
	for line, last := hw.LineOf(a), hw.LineOf(a+hw.Addr(n)-1); line <= last; line += hw.LineSize {
		c.Ops = append(c.Ops, hw.Op{Kind: hw.OpDMAWrite, Addr: line, Func: c.fn, Elem: c.elem})
	}
}

// Compute emits a burst of cycles core work retiring instrs instructions.
//
//dataplane:hotpath
func (c *Ctx) Compute(cycles, instrs uint32) {
	if cycles == 0 && instrs == 0 {
		return
	}
	c.Ops = append(c.Ops, hw.Op{Kind: hw.OpCompute, Cycles: cycles, Instrs: instrs, Func: c.fn, Elem: c.elem})
}
