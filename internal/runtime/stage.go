package runtime

import (
	"fmt"

	"pktpredict/internal/click"
	"pktpredict/internal/handoff"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/obs"
)

// Every flow is a chain of one or more stages, each bound to its own
// worker — Section 2.2's "parallel" approach is the zero-cut case of its
// "pipeline" approach. A Click graph cut by `stage N:` statements runs
// each stage on its own worker, connected by handoff rings; an unstaged
// graph is one stage with no hand-off, return or recycle ring, and a
// synthetic flow is one stage whose packets come from a raw
// hw.PacketSource instead of a graph walk. Unlike the dispatcher's
// receive rings — refilled only at barriers — handoff rings are live
// SPSC queues between two concurrently running workers, so a starved
// stage spin-polls its ring (charging the poll's trace) instead of
// idling to the quantum boundary: within one quantum its producer may
// still deliver.
//
// Buffer ownership: every packet buffer comes from the stage-0 worker's
// NUMA-local pool. A later stage that terminates a packet cannot touch
// that pool directly (the Go-side free list belongs to the stage-0
// goroutine), so each stage k>0 owns a return ring back to stage 0: the
// terminating stage pushes the spent packet (charging the descriptor-line
// store — the cross-core recycling traffic the paper describes), and
// stage 0 drains the returns into its pool before pulling new work.

// stage is one stage of one flow replica, bound to one worker.
type stage struct {
	fl    *flow
	index int

	// runner walks this stage's share of the flow's graph; raw replaces
	// it for a synthetic flow, whose source emits whole packet traces.
	// Exactly one of the two is set, and step's packet-production branch
	// is the only code that tells them apart.
	runner *click.StageRunner
	raw    hw.PacketSource

	in  *handoff.Ring // packets from the previous stage; nil at stage 0
	out *handoff.Ring // packets to the next stage; nil at the last stage

	// rec routes stage k's spent buffers into its return ring to stage 0
	// (nil at stage 0); returns collects every later stage's return ring
	// on stage 0, which drains them into its worker's pool.
	rec     *remoteRecycler
	returns []*handoff.Ring

	entry     int // node index the stage enters the graph at (stage 0 only)
	workerIdx int

	// batched defers hand-off cursor publishes/releases to flush (once
	// per worker batch) instead of per packet — set when the scenario
	// models a receive batch (Params.RxBatch > 1) and the flow has
	// hand-off rings at all.
	batched bool

	// elems is this stage's per-element cost table (nil for synthetic
	// flows): slot 0 is the stage's overhead (source pulls, ring polls,
	// recycling), slot i+1 is pipe.Nodes()[i]. Each stage runs on its own
	// core, so a node's cost lands in the table of the stage that
	// executes it and the control loop sums the stages at barriers. The
	// table is installed on whichever core the stage is bound to
	// (hw.Core.SetElemTable) and follows it across migrations; only the
	// owning worker writes it; the control loop marks it at barriers.
	elems []hw.ElemCell

	// lat is this stage's end-to-end latency shard: finish-clock minus
	// ring-enqueue stamp, recorded by whichever stage terminates the
	// packet's walk, so each stage owns a single-writer histogram and the
	// control loop merges them into the mark.
	lat obs.LatHist
}

// remoteRecycler routes a spent packet home through the stage's return
// ring instead of mutating the stage-0 pool from the wrong goroutine.
// The descriptor-line store it charges is the recycling leg of the
// hand-off cost; the pool's own free-list trace runs on stage 0 when it
// drains the ring.
type remoteRecycler struct {
	ring *handoff.Ring
}

// Recycle implements click.Recycler.
func (rr *remoteRecycler) Recycle(ctx *click.Ctx, p *click.Packet) {
	if !rr.ring.Push(ctx, p, -1, false) {
		// The ring is sized to hold every buffer the pool owns.
		panic("runtime: chain buffer-return ring overflow")
	}
}

// buildStages cuts f across consecutive workers starting at worker lead —
// one per stage of its pipeline, or a single one for an unstaged or
// synthetic flow — wiring hand-off and return rings between consecutive
// stages and binding each stage to its worker.
func (r *Runtime) buildStages(f *flow, raw hw.PacketSource, lead, stages int, arena func(int) *mem.Arena) error {
	if have := f.numStages(); have != stages {
		return fmt.Errorf("runtime: app %q: pipeline has %d stages, spec expects %d", f.app.spec.Name, have, stages)
	}
	f.stages = make([]*stage, stages)
	var prev *handoff.Ring
	for s := 0; s < stages; s++ {
		w := r.workers[lead+s]
		u := &stage{fl: f, index: s, raw: raw, in: prev, batched: stages > 1 && r.cfg.Params.RxBatch > 1}
		if f.pipe != nil {
			runner, err := f.pipe.StageRunner(s)
			if err != nil {
				return fmt.Errorf("runtime: app %q replica %d: %w", f.app.spec.Name, f.replica, err)
			}
			u.runner = runner
			u.elems = make([]hw.ElemCell, len(f.pipe.Nodes())+1)
			u.entry = f.pipe.HeadIndex()
		}
		if s < stages-1 {
			// Descriptor lines live in the producing stage's domain, as a
			// real driver allocates its rings locally.
			u.out = handoff.New(arena(w.socket), r.chainHandoffDepth(stages))
			prev = u.out
		}
		if s > 0 {
			u.rec = &remoteRecycler{ring: handoff.New(arena(w.socket), r.cfg.Params.Buffers)}
			f.stages[0].returns = append(f.stages[0].returns, u.rec.ring)
		}
		f.stages[s] = u
		w.bind(u)
	}
	return nil
}

// handoffDepth is the capacity of the hand-off rings connecting the
// stages of a cross-worker service chain, before chainHandoffDepth's clamp.
const handoffDepth = 128

// chainHandoffDepth bounds the forward rings of a chain (stages ≥ 2) so
// that packets in flight plus buffers queued for return can never
// exhaust the stage-0 pool.
func (r *Runtime) chainHandoffDepth(stages int) int {
	depth := handoffDepth
	if limit := r.cfg.Params.Buffers / (4 * (stages - 1)); depth > limit {
		depth = limit
	}
	if depth < 2 {
		depth = 2
	}
	return depth
}

// stepResult is what one unit of stage work hands poll: the trace
// to execute and, because a packet's latency and exec span can only be
// timed once that trace has advanced the core clock, what to record
// afterwards.
type stepResult struct {
	ops    []hw.Op
	packet bool // a packet was processed; otherwise ops (if any) are stall work

	// lat is non-nil when the packet's walk terminated in this step: its
	// end-to-end latency (finish clock − enq, the dispatcher's enqueue
	// stamp) belongs in that single-writer shard.
	lat *obs.LatHist
	enq uint64

	// trace is non-zero for a sampled packet, whose exec span poll
	// records; dequeued/handed say whether the span began with a hand-off
	// pop and ended with a hand-off push.
	trace            uint64
	dequeued, handed bool
}

// step executes one unit of stage work: recycle returned buffers, then
// pull/pop one packet and walk it through this stage, handing it onward
// if the walk crosses the cut. Ops may be non-empty with no packet
// processed (a spin-wait poll or a drained return), which advances the
// clock without counting throughput; empty ops mean the worker has
// nothing to do until the next barrier.
func (u *stage) step(w *worker) stepResult {
	if u.raw != nil {
		// Synthetic sources drive themselves and emit the whole trace.
		ops := u.raw.EmitPacket(w.opbuf[:0])
		if len(ops) > 0 {
			u.fl.packets++
		}
		return stepResult{ops: ops, packet: len(ops) > 0}
	}
	ctx := u.runner.Ctx()
	ctx.Ops = w.opbuf[:0]

	// Stage 0: return spent buffers to the pool first, so the pool can
	// never run dry while packets sit in a return ring.
	for _, ret := range u.returns {
		for {
			p, _, _, ok := ret.Pop(ctx)
			if !ok {
				break
			}
			w.src.Recycle(ctx, p)
		}
	}

	// Credit backpressure: never take a packet the next stage has no
	// slot for; spin on the ring's state line instead.
	if u.out != nil && u.out.Full() {
		u.out.PollFull(ctx)
		return stepResult{ops: ctx.Ops}
	}

	var p *click.Packet
	entry := u.entry
	prior := false
	if u.in == nil {
		p = w.src.Pull(ctx)
		if p == nil {
			// The receive ring refills only at barriers; if draining the
			// returns charged nothing either, the worker idles out the
			// quantum.
			return stepResult{ops: ctx.Ops}
		}
		u.fl.packets++
		if w.shard != nil && len(u.fl.stages) > 1 {
			// Sample at chain entry: a non-zero ID rides the packet (and
			// its hand-off descriptors) through every later stage. Spans
			// trace hand-offs, so run-to-completion flows are not sampled.
			p.Trace = w.shard.Sample()
		}
	} else {
		var ok bool
		if u.batched {
			// Defer the head-cursor release to flush: one store per batch.
			p, entry, prior, ok = u.in.PopStaged(ctx)
		} else {
			p, entry, prior, ok = u.in.Pop(ctx)
		}
		if !ok {
			// The producer may deliver mid-quantum: spin, don't idle.
			u.in.PollEmpty(ctx)
			return stepResult{ops: ctx.Ops}
		}
		u.in.ChargeHeaderMiss(ctx, p)
		p.Recycler = u.rec
	}

	// Capture the stamps before the walk: a terminating walk recycles the
	// packet (into the pool, or into a return ring after which stage 0
	// may reuse the slot and overwrite this header concurrently) — the
	// Packet must never be read again once Walk has run.
	res := stepResult{packet: true, enq: p.Enq, trace: p.Trace, dequeued: u.in != nil}

	next, fin := u.runner.Walk(p, entry, prior)
	if next >= 0 {
		// Cannot fail: Full was checked above (and counts staged slots).
		if u.batched {
			u.out.StagePush(ctx, p, next, fin)
		} else {
			u.out.Push(ctx, p, next, fin)
		}
		res.handed = true
	} else {
		// The walk terminated here: this stage records the packet's
		// end-to-end latency (finished or dropped — either way the packet
		// left the system) once poll has executed its trace.
		res.lat = &u.lat
	}
	res.ops = ctx.Ops
	return res
}

// flush closes the stage's current batch: staged hand-off pushes are
// published and taken slots released, each with a single cursor store
// whose simulated cost (charged once per batch — the amortization
// batching buys) executes as a stall trace. poll calls it at every
// batch close, so ring cursors are exact at barriers and a peer
// stage never waits past one batch for staged packets.
func (u *stage) flush(w *worker) {
	if !u.batched {
		return
	}
	ctx := u.runner.Ctx()
	ctx.Ops = w.opbuf[:0]
	if u.out != nil {
		u.out.CommitPush(ctx)
	}
	if u.in != nil {
		u.in.CommitPop(ctx)
	}
	w.opbuf = ctx.Ops
	if len(ctx.Ops) > 0 {
		w.core.ExecStall(ctx.Ops)
	}
}

// inputReady reports whether the stage could have kept filling its
// worker's current batch had the quantum not ended: it has packets
// waiting and its output is not blocked. Used only to classify a
// boundary-clipped poll — a starved or backpressured batch is a genuine
// occupancy observation even when the clock also ran out.
func (u *stage) inputReady() bool {
	switch {
	case u.out != nil && u.out.Full():
		return false
	case u.in != nil:
		return u.in.Len() > 0
	case u.fl.ring != nil:
		return u.fl.ring.Len() > 0
	default:
		// Synthetic sources drive themselves; work is always available.
		return true
	}
}

// inFlight counts packets currently inside the flow's forward rings.
func (f *flow) inFlight() uint64 {
	var n uint64
	for _, u := range f.stages {
		if u.in != nil {
			n += uint64(u.in.Len())
		}
	}
	return n
}
