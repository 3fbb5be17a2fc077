// Package handoff is the inter-stage packet ring used when one flow's
// processing is split across cores — the Section 2.2 "pipeline" approach.
// A Ring pairs a Go-side SPSC queue carrying the packets with a simulated
// descriptor ring whose cache lines both stages touch, so the costs the
// paper attributes to pipelining emerge from the simulation:
//
//   - descriptor-line stores (producer) and loads (consumer) that bounce
//     between the two cores' caches,
//   - spin-wait polls of the ring state when a stage runs ahead of its
//     peer,
//   - the compulsory cross-core miss on the packet header lines, last
//     written by the producing core,
//   - buffer recycling back into the producing core's pool (callers run
//     the pool's free-list trace on the consuming core, or route buffers
//     home through a second Ring).
//
// The same Ring serves the deterministic engine's Section 2.2 experiment
// (exp.RunPipeline) and the concurrent runtime's cross-worker service
// chains, so both charge identical hand-off costs. The queue protocol is
// spsc.Cursor's, shared with runtime.Ring; this package adds only what
// is stored in a slot and what each operation costs in the simulation.
// Concurrent use obeys the SPSC discipline: exactly one producer
// goroutine calls Push/PollFull, exactly one consumer calls
// Pop/PollEmpty.
package handoff

import (
	"sync/atomic"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/spsc"
)

// fnHandoff attributes the ring manipulation in per-function profiles.
var fnHandoff = hw.RegisterFunc("pipeline_handoff")

// Simulated costs of the ring operations, shared by the engine experiment
// and the runtime so the two charge identical hand-off prices. A scalar
// push or pop costs slot + cursor (12 cycles / 10 instrs, as before);
// batched operation pays the slot part per packet and the cursor part
// once per batch — the amortization real batched rings buy.
const (
	slotCycles   = 8 // per packet: descriptor write/read + slot handling
	slotInstrs   = 6
	cursorCycles = 4 // per publish/release: cursor load + store
	cursorInstrs = 4
	pollCycles   = 40 // one spin-wait iteration on the ring state
	pollInstrs   = 30
	descBytes    = 16 // descriptor size; four descriptors share a line
	HeaderBytes  = 64 // packet header bytes the consumer must re-read
)

// slot carries one handed-over packet, the graph node the consuming
// stage resumes the walk at (consumers that run a fixed element list
// ignore it), and whether a branch of the packet's walk already
// completed before the cut — the upstream share of the packet-level
// finished/dropped outcome.
type slot struct {
	p        *click.Packet
	node     int32
	finished bool
}

// Ring is a bounded SPSC hand-off ring between two pipeline stages. The
// head/tail protocol is the shared spsc.Cursor's; the ring adds the
// descriptor slots, the spin-wait poll counters and the modelled cost of
// every operation.
type Ring struct {
	cur   spsc.Cursor
	slots []slot
	desc  mem.Region

	// pushPolls counts producer spin-wait iterations (PollFull): a burst
	// of them means the consumer lags (ring full). popPolls counts
	// consumer spin-wait iterations (PollEmpty): a burst of them means
	// the producer starves the consumer (ring empty). The two directions
	// mean opposite things, so they are kept apart (on separate cache
	// lines, each written by one side only) and exposed separately.
	pushPolls atomic.Uint64
	_         [56]byte
	popPolls  atomic.Uint64
}

// New builds a ring of the given depth (rounded up to a power of two,
// minimum 2) whose simulated descriptor ring is allocated from arena —
// conventionally the producing stage's NUMA domain, as a real driver
// allocates its rings locally.
func New(arena *mem.Arena, depth int) *Ring {
	r := &Ring{}
	n := r.cur.Init(depth)
	r.slots = make([]slot, n)
	r.desc = mem.NewRegion(arena, n, descBytes, false)
	return r
}

// Cap returns the ring's capacity in packets.
func (r *Ring) Cap() int { return r.cur.Cap() }

// Len returns the current occupancy; naturally racy while both stages run.
func (r *Ring) Len() int { return r.cur.Len() }

// Full reports whether a Push or StagePush would fail (producer side;
// see spsc.Cursor.Full).
func (r *Ring) Full() bool { return r.cur.Full() }

// Consumed returns the cumulative number of packets popped, for credit
// accounting across barriers.
func (r *Ring) Consumed() uint64 { return r.cur.Consumed() }

// PushPolls returns the producer's cumulative spin-wait iterations
// (PollFull): the ring was full, so the consumer lags.
func (r *Ring) PushPolls() uint64 { return r.pushPolls.Load() }

// PopPolls returns the consumer's cumulative spin-wait iterations
// (PollEmpty): the ring was empty, so the producer starves the consumer.
func (r *Ring) PopPolls() uint64 { return r.popPolls.Load() }

// Push hands p (with its resume node and upstream finished flag) to the
// consuming stage, emitting the descriptor-line store and the cursor
// publish. It returns false, charging nothing, when the ring is full;
// the producer then typically PollFulls and retries later. A Push also
// publishes any slots the producer had staged.
//
//dataplane:stamped hand-off descriptor ops are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) Push(ctx *click.Ctx, p *click.Packet, node int, finished bool) bool {
	ok := r.StagePush(ctx, p, node, finished)
	r.CommitPush(ctx)
	return ok
}

// StagePush writes p's descriptor and slot without publishing them: the
// consumer cannot see staged slots until CommitPush pays the cursor cost
// once and stores tail for the whole batch. Returns false, charging
// nothing, when the ring (including already-staged slots) is full.
//
//dataplane:stamped hand-off descriptor ops are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) StagePush(ctx *click.Ctx, p *click.Packet, node int, finished bool) bool {
	i, ok := r.cur.Stage()
	if !ok {
		return false
	}
	old := ctx.SetFunc(fnHandoff)
	ctx.Store(r.desc.Addr(int(i)))
	ctx.Compute(slotCycles, slotInstrs)
	ctx.SetFunc(old)
	r.slots[i] = slot{p: p, node: int32(node), finished: finished}
	return true
}

// CommitPush publishes every staged slot with a single tail store,
// charging the cursor update once for the whole batch. A no-op, charging
// nothing, when nothing is staged.
//
//dataplane:stamped hand-off descriptor ops are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) CommitPush(ctx *click.Ctx) {
	if r.cur.Commit() {
		r.chargeCursor(ctx)
	}
}

// Pop takes the next packet, emitting the descriptor-line load and the
// cursor release. It returns ok=false, charging nothing, when the ring
// is empty. A Pop also releases any slots the consumer had taken via
// PopStaged.
//
//dataplane:stamped hand-off descriptor ops are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) Pop(ctx *click.Ctx) (p *click.Packet, node int, finished bool, ok bool) {
	p, node, finished, ok = r.PopStaged(ctx)
	r.CommitPop(ctx)
	return p, node, finished, ok
}

// PopStaged takes the next packet without releasing its slot: the
// producer cannot reuse taken slots until CommitPop pays the cursor cost
// once and stores head for the whole batch. Returns ok=false, charging
// nothing, when the ring (beyond already-taken slots) is empty.
//
//dataplane:stamped hand-off descriptor ops are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) PopStaged(ctx *click.Ctx) (p *click.Packet, node int, finished bool, ok bool) {
	i, ok := r.cur.Take()
	if !ok {
		return nil, 0, false, false
	}
	old := ctx.SetFunc(fnHandoff)
	ctx.Load(r.desc.Addr(int(i)))
	ctx.Compute(slotCycles, slotInstrs)
	ctx.SetFunc(old)
	s := r.slots[i]
	r.slots[i] = slot{}
	return s.p, int(s.node), s.finished, true
}

// CommitPop releases every taken slot with a single head store, charging
// the cursor update once for the whole batch. A no-op, charging nothing,
// when nothing is pending.
//
//dataplane:stamped hand-off descriptor ops are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) CommitPop(ctx *click.Ctx) {
	if r.cur.Release() {
		r.chargeCursor(ctx)
	}
}

// chargeCursor emits the modelled cost of one cursor publish or release.
//
//dataplane:stamped hand-off descriptor ops are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) chargeCursor(ctx *click.Ctx) {
	old := ctx.SetFunc(fnHandoff)
	ctx.Compute(cursorCycles, cursorInstrs)
	ctx.SetFunc(old)
}

// PollFull models one producer spin-wait iteration: re-reading the line
// the consumer's progress is published on.
//
//dataplane:stamped spin-wait polls are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) PollFull(ctx *click.Ctx) {
	r.pushPolls.Add(1)
	r.poll(ctx, r.cur.Consumed())
}

// PollEmpty models one consumer spin-wait iteration: re-reading the line
// the producer's progress is published on.
//
//dataplane:stamped spin-wait polls are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) PollEmpty(ctx *click.Ctx) {
	r.popPolls.Add(1)
	r.poll(ctx, r.cur.Produced())
}

//dataplane:stamped spin-wait polls are pipeline overhead (slot 0) by design
//dataplane:hotpath
func (r *Ring) poll(ctx *click.Ctx, cursor uint64) {
	old := ctx.SetFunc(fnHandoff)
	ctx.Load(r.desc.Addr(int(cursor) & (len(r.slots) - 1)))
	ctx.Compute(pollCycles, pollInstrs)
	ctx.SetFunc(old)
}

// ChargeHeaderMiss emits the consumer-side read of the packet's header
// lines — the compulsory cross-core miss the paper describes: the lines
// were last written by the producing core, so they must travel.
//
//dataplane:stamped cross-core header miss is charged to the consuming stage as overhead
//dataplane:hotpath
func (r *Ring) ChargeHeaderMiss(ctx *click.Ctx, p *click.Packet) {
	old := ctx.SetFunc(fnHandoff)
	ctx.LoadBytes(p.Addr, HeaderBytes)
	ctx.SetFunc(old)
}
