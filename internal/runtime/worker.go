package runtime

import (
	"cmp"
	"slices"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/elements"
	"pktpredict/internal/hw"
	"pktpredict/internal/obs"
	"pktpredict/internal/trafficgen"
)

// flow is one running flow instance: a pipeline replica (or a raw
// synthetic source) cut into one or more stages, plus its input ring and
// admission-control element. Each stage is bound to exactly one worker
// at a time; live re-placement exchanges the bindings of two one-stage
// flows at a barrier, while a longer chain is placed and throttled as
// one unit and stays pinned (its hand-off rings keep exactly one
// producer and one consumer). The flow's state (tables, buffers) stays
// in the NUMA domain it was allocated from, so a migrated flow pays
// remote-memory latency — exactly the cost a real dataplane weighs
// before moving work across sockets.
type flow struct {
	id      int
	app     *appState
	replica int

	pipe    *click.Pipeline   // nil for synthetic flows
	ring    *Ring             // nil for synthetic flows
	control *elements.Control // non-nil when the app carries admission control
	traffic *trafficgen.Spec  // the graph's own source's spec, read before buildFlow drops the source

	// stages holds the flow's stages in pipeline order, at least one (see
	// stage.go); the per-element tables and latency shards live there.
	stages []*stage

	// state records where the flow's live tables sit in simulated memory
	// (build-time source buffers excluded); stateBytes is their summed
	// footprint. stateHome is the socket whose memory controller
	// currently serves those lines: it starts as the home of the flow's
	// private NUMA domain(s) and follows the flow when a migration copies
	// the state (Runtime.migrateState). A flow running on a worker whose
	// socket differs from stateHome pays QPI on every table reference.
	state      []apps.StateBinding
	stateBytes uint64
	stateHome  int

	// packets counts packets that entered the flow. The stage-0 worker
	// increments it; the control loop marks it at barriers.
	packets uint64

	// lastConsumed is the dispatcher's credit cursor: the ring's consumed
	// count at the last barrier (see dispatcher.enqueue).
	lastConsumed uint64
}

// numStages returns how many stages (and so workers) the flow occupies.
func (f *flow) numStages() int {
	if f.pipe == nil {
		return 1
	}
	return f.pipe.NumStages()
}

// stageState sums the state footprint of one stage and returns the
// socket currently homing it (-1 when the stage allocated nothing).
func (f *flow) stageState(stage int, p *hw.Platform) (bytes uint64, socket int) {
	socket = -1
	for _, b := range f.state {
		if b.Stage != stage || b.Size == 0 {
			continue
		}
		bytes += b.Size
		if socket < 0 {
			socket = p.DomainHome(b.Domain())
		}
	}
	return bytes, socket
}

// worker is one run-to-completion dataplane thread pinned to one simulated
// core, whose quanta the barrier runs. It owns the core exclusively; its
// socket's workers run on one goroutine (runSocket), so the shared cache
// state it touches is never contended (see Core.ExecOps). Only its steps
// may run elsewhere, on its socket's emitter (emit.go).
type worker struct {
	id     int
	core   *hw.Core
	socket int
	src    *elements.FromDevice // fed by the input ring of the flow whose stage 0 it runs
	batch  int

	// unit is the stage the worker runs. Every worker is bound to exactly
	// one stage from NewRuntime on; swap exchanges two workers' units.
	unit       *stage
	opbuf      []hw.Op
	n          int    // packets in the open batch, which poll steps and closes
	progressed bool   // whether a step of the open batch did work
	ahead      *ahead // the emitter handshake; nil unless an emitter may serve the worker

	// Owner-written cumulative telemetry, marked by the control loop at
	// barriers. Batch polls clipped by the quantum boundary (the clock ran
	// out mid-batch with input still available) are counted apart from
	// the occupancy sums: a boundary-clipped poll says nothing about how
	// full the input rings run, and folding it in biased BatchOccupancy
	// low — the shorter the quantum, the worse.
	totBatchSum uint64 // packets in occupancy-counted polls
	totBatchCnt uint64 // occupancy-counted batch polls
	totClipped  uint64 // quantum-clipped batch polls

	// Per-binding baselines of the core's packet count and clock, reset
	// whenever the worker's flow changes (and at measurement start), so
	// reported packets are attributed to the app that actually processed
	// them rather than to whichever flow held the final binding after a
	// migration.
	bindPackets uint64
	bindClock   uint64

	// Barrier-side handles whose labels name the bound stage, resolved by
	// bind (obsm is nil when no registry is configured): the binding info
	// gauge and, per table slot the stage executes, the element rows.
	obsm   *rtObs
	mBound *obs.Gauge
	mElems []elemHandles

	// shard is the worker's private trace buffer (nil when tracing is
	// off): poll records a sampled packet's exec span into it.
	shard *obs.TraceShard
}

// bind attaches stage u to w, at construction and when a re-placement
// swap moves a one-stage flow: from now on the stage runs on this
// worker's core, charges its per-element table there (only this worker
// writes it), and — at stage 0 of a ring-fed flow — draws packets from
// the flow's ring through this worker's NUMA-local FromDevice. Any other
// stage leaves the source without a feed (nil, never a typed nil).
func (w *worker) bind(u *stage) {
	w.unit = u
	w.bindPackets = w.core.Counters.Packets
	w.bindClock = w.core.Clock()
	u.workerIdx = w.id
	w.core.SetElemTable(u.elems)
	w.src.SetFeed(nil)
	if u.index == 0 && u.fl.ring != nil {
		w.src.SetFeed(u.fl.ring)
	}
	if w.obsm != nil {
		w.obsm.bind(w)
	}
}

// poll runs one step of the open batch, one packet's trace or one stall
// trace, or closes the batch once it is full, the clock has reached limit
// or the stage had nothing to give; it returns false when the quantum is
// done. A receive ring refills only at barriers, so a dry input idles the
// worker to limit; a chain stage instead spin-polls its hand-off ring,
// which a peer feeds live, and the stall counts no packet. The step comes
// from em when em has walked it ahead (nil em: none this quantum).
func (w *worker) poll(limit uint64, em *emitter) bool {
	u := w.unit
	if w.n < w.batch && w.core.Clock() < limit {
		res := em.take(w)
		if w.opbuf = res.ops; len(res.ops) > 0 {
			w.progressed = true
			if !res.packet {
				w.core.ExecStall(res.ops)
				return true
			}
			// Bracket the trace's execution with core-clock reads: a
			// sampled packet's span is the charged virtual time, hand-off
			// costs included.
			start := w.core.Clock()
			w.core.ExecOps(res.ops)
			if res.trace != 0 {
				w.shard.Exec(obs.TraceEvent{
					Trace: res.trace, Pid: u.fl.id, Tid: w.id,
					Stage: u.index, Start: start, End: w.core.Clock(),
					Dequeued: res.dequeued, Enqueued: res.handed,
				})
			}
			if res.lat != nil {
				// The packet's walk terminated this step: its end-to-end
				// latency is the core clock now that its trace has
				// executed, minus the dispatcher's enqueue stamp.
				res.lat.Observe(w.core.Clock() - res.enq)
			}
			w.n++
			return true
		}
	}
	// Close the batch: release the receive ring's cursor once for the burst
	// and publish/release the slots the stage staged on its hand-off rings.
	n, progressed := w.n, w.progressed
	w.n, w.progressed = 0, false
	w.src.EndBatch()
	u.flush(w)
	if progressed && n < w.batch && w.core.Clock() >= limit && u.inputReady() {
		// The quantum boundary cut this batch short with input still
		// available: its fill reflects the clock, not the ring, so it is
		// counted apart instead of biasing occupancy low.
		w.totClipped++
	} else {
		w.totBatchSum += uint64(n)
		w.totBatchCnt++
	}
	if !progressed {
		w.core.AdvanceTo(limit)
	}
	return progressed && w.core.Clock() < limit
}

// runSocket runs g's workers to limit in the engine's order: it polls
// the live one with the smallest core clock, ties going to the rotation
// of g.ws starting at first. For one worker this is its whole quantum.
// When the barrier opened g's emitter for the quantum, each step the
// quantum is certain to take is requested from it (the one-step rule,
// emit.go), and the emitter parks when the quantum ends.
func runSocket(g *group, first int, limit uint64) {
	var em *emitter
	if g.em != nil && g.em.on.Load() {
		em = g.em
		defer em.on.Store(false)
	}
	live := g.live[:0]
	for k := range g.ws {
		if w := g.ws[(first+k)%len(g.ws)]; w.core.Clock() < limit {
			live = append(live, w)
			em.request(w)
		}
	}
	for len(live) > 0 {
		w := slices.MinFunc(live, func(a, b *worker) int { return cmp.Compare(a.core.Clock(), b.core.Clock()) })
		if !w.poll(limit, em) {
			live = slices.DeleteFunc(live, func(x *worker) bool { return x == w })
		} else if w.n < w.batch && w.core.Clock() < limit {
			em.request(w)
		}
	}
}

// occupancy converts a batch-fill sum/count pair to a mean fraction.
func occupancy(sum, cnt uint64, batch int) float64 {
	if cnt == 0 || batch == 0 {
		return 0
	}
	return float64(sum) / float64(cnt) / float64(batch)
}
