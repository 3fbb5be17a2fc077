package runtime

import (
	"math"
	"slices"

	"pktpredict/internal/core"
	"pktpredict/internal/hw"
	"pktpredict/internal/obs"
)

// The control window. Both of the paper's online mechanisms read "each
// flow's hardware counters over one monitoring interval" (Section 4's
// containment, Section 5's diagnosis). Here that interval is a value: a
// mark copies every cumulative counter the control loop differences, the
// runtime keeps two of them — base, taken at the end of warm-up, and
// prev, taken at the last control barrier — and a window is the one
// subtraction cur − prev, computed once per barrier and read by gather,
// decide and publish in turn. The whole-run report is the same
// subtraction against base. The counters themselves are never zeroed or
// rolled forward, so one added to the mark cannot be reset in one place
// and forgotten in another.

// mark is the cumulative state at one barrier. Its storage is allocated
// once per runtime (newMark) and overwritten by take and diff.
type mark struct {
	q       int          // the last quantum the counters include
	workers []workerMark // by worker id
	apps    []appMark    // by app index
	flows   []flowMark   // by flow id
	groups  []groupMark  // by socket group
}

// groupMark is a socket group's emitter tallies (see group).
type groupMark struct {
	quanta, steals, waits uint64
}

type workerMark struct {
	counters hw.Counters
	clock    uint64
	// Batch-fill sum and count over occupancy-counted polls, and the polls
	// the quantum boundary clipped (see worker).
	batchSum, batchCnt, clipped uint64
}

type appMark struct {
	offered, enqueued, nicDrops uint64
	// processed counts packets entering the group's flows, not per-worker
	// executions: a chain's stages each touch the same packet once.
	processed uint64
	lat       obs.LatHist // the group's per-stage latency shards, merged
}

type flowMark struct {
	packets uint64
	branch  []branchCounters // by pipeline node, nil for synthetic flows
	stages  []stageMark
}

type stageMark struct {
	elems                         []hw.ElemCost // by table slot
	pushPolls, popPolls           uint64        // the out ring's, zero at the last stage
	dropped, finished, cutDropped uint64        // the stage runner's
}

// branchCounters is one node's terminal counters.
type branchCounters struct {
	dropped, finished uint64
}

func newMark(r *Runtime) *mark {
	m := &mark{
		workers: make([]workerMark, len(r.workers)),
		apps:    make([]appMark, len(r.disp.apps)),
		flows:   make([]flowMark, len(r.flows)),
		groups:  make([]groupMark, len(r.groups)),
	}
	for _, f := range r.flows {
		fm := &m.flows[f.id]
		fm.stages = make([]stageMark, len(f.stages))
		for s, u := range f.stages {
			fm.stages[s].elems = make([]hw.ElemCost, len(u.elems))
		}
		if f.pipe != nil {
			fm.branch = make([]branchCounters, len(f.pipe.Nodes()))
		}
	}
	return m
}

// take copies the runtime's counters as of the barrier after quantum q.
// All workers are parked, so plain reads of owner-written state are safe.
func (m *mark) take(r *Runtime, q int) {
	m.q = q
	for i, w := range r.workers {
		m.workers[i] = workerMark{counters: w.core.Counters, clock: w.core.Clock(),
			batchSum: w.totBatchSum, batchCnt: w.totBatchCnt, clipped: w.totClipped}
	}
	for i, g := range r.groups {
		m.groups[i] = groupMark{quanta: g.emitQuanta, steals: g.steals, waits: g.waits}
	}
	for i, a := range r.disp.apps {
		am := &m.apps[i]
		*am = appMark{offered: a.offered, enqueued: a.enqueued, nicDrops: a.nicDrops}
		for _, f := range a.flows {
			fm := &m.flows[f.id]
			fm.packets = f.packets
			am.processed += f.packets
			for s, u := range f.stages {
				sm := &fm.stages[s]
				hw.CopyCosts(sm.elems, u.elems)
				am.lat.Merge(&u.lat)
				if u.out != nil {
					sm.pushPolls, sm.popPolls = u.out.PushPolls(), u.out.PopPolls()
				}
				if u.runner != nil {
					sm.dropped, sm.finished, sm.cutDropped = u.runner.Dropped, u.runner.Finished, u.runner.CutDropped
				}
			}
			for k := range fm.branch {
				n := f.pipe.Nodes()[k]
				fm.branch[k] = branchCounters{dropped: n.Dropped, finished: n.Finished}
			}
		}
	}
}

// diff sets d to cur − since: the one subtraction behind every control
// window (since = prev) and the whole-run report (since = base). d.q is
// the interval's length in quanta.
func (d *mark) diff(cur, since *mark) {
	d.q = cur.q - since.q
	for i := range d.workers {
		c, s := &cur.workers[i], &since.workers[i]
		d.workers[i] = workerMark{counters: c.counters.Sub(s.counters), clock: c.clock - s.clock,
			batchSum: c.batchSum - s.batchSum, batchCnt: c.batchCnt - s.batchCnt, clipped: c.clipped - s.clipped}
	}
	for i := range d.groups {
		c, s := &cur.groups[i], &since.groups[i]
		d.groups[i] = groupMark{quanta: c.quanta - s.quanta, steals: c.steals - s.steals, waits: c.waits - s.waits}
	}
	for i := range d.apps {
		c, s := &cur.apps[i], &since.apps[i]
		d.apps[i] = appMark{offered: c.offered - s.offered, enqueued: c.enqueued - s.enqueued, nicDrops: c.nicDrops - s.nicDrops,
			processed: c.processed - s.processed, lat: c.lat.Sub(&s.lat)}
	}
	for i := range d.flows {
		c, s, df := &cur.flows[i], &since.flows[i], &d.flows[i]
		df.packets = c.packets - s.packets
		for k := range df.branch {
			df.branch[k] = branchCounters{c.branch[k].dropped - s.branch[k].dropped, c.branch[k].finished - s.branch[k].finished}
		}
		for j := range df.stages {
			cs, ss, ds := &c.stages[j], &s.stages[j], &df.stages[j]
			for k := range ds.elems {
				ds.elems[k] = cs.elems[k].Sub(ss.elems[k])
			}
			ds.pushPolls, ds.popPolls = cs.pushPolls-ss.pushPolls, cs.popPolls-ss.popPolls
			ds.dropped, ds.finished, ds.cutDropped = cs.dropped-ss.dropped, cs.finished-ss.finished, cs.cutDropped-ss.cutDropped
		}
	}
}

// total returns the whole measured interval so far, prev − base. After
// Run that is the whole run: its last barrier always takes a mark.
func (r *Runtime) total() *mark {
	r.win.d.diff(r.prev, r.base)
	return r.win.d
}

// window is one control interval: the counter deltas, the telemetry
// gather derives from them, and the live placement decide reads. d is
// reused storage; sample is fresh every window because OnWindow may keep
// it.
type window struct {
	sec    float64 // its length in virtual seconds
	d      *mark   // cur − prev
	sample ControlSample
	live   []core.LiveFlow // by worker id
	drops  []float64       // predicted drop of each live flow in the measured placement
}

// remoteRate returns a worker's remote references per packet over the
// window, or NaN when it processed no packets and so measured nothing.
func (win *window) remoteRate(worker int) float64 {
	if win.d.workers[worker].counters.Packets == 0 {
		return math.NaN()
	}
	return win.sample.Workers[worker].RemotePerPacket
}

// rebalanceMargin is the control loop's re-placement margin: it swaps two
// flows only for a predicted improvement of at least two points of drop.
// (Admission tolerates core.ThrottleSlack over a flow's profiled rate.)
const rebalanceMargin = 0.02

// controlStep is the operator's monitoring agent, run at the barrier
// after quantum q with every worker parked. decide writes only control
// delays and bindings (and, through swap, the marks of the two cores it
// charged a state copy to); publish hands the window out — SLO state, the
// registry, OnWindow — and writes nothing the dataplane reads.
func (r *Runtime) controlStep(q int) {
	win := r.gather(q)
	r.decide(win)
	r.publish(win)
	r.prev, r.cur = r.cur, r.prev
}

// gather marks the counters and derives the window: per-core telemetry
// from the counter deltas, the live placement, and its predicted drops,
// which it adds to each measured app's whole-run average (decide may
// rebind workers before publish).
func (r *Runtime) gather(q int) *window {
	r.cur.take(r, q)
	win := &r.win
	win.d.diff(r.cur, r.prev)
	win.sec = float64(win.d.q) * r.quantumSec
	// Time is virtual seconds since measurement start: warmup quanta are
	// excluded from the axis, so the first post-warmup window ends at
	// ControlEvery × quantum regardless of how long warmup ran.
	win.sample = ControlSample{Quantum: q, Time: float64(q-r.base.q) * r.quantumSec,
		Workers: make([]WorkerTelemetry, len(r.workers))}
	win.live = make([]core.LiveFlow, len(r.workers))
	for i, w := range r.workers {
		d := &win.d.workers[i]
		delta := &d.counters
		u := w.unit
		f := u.fl
		tele := WorkerTelemetry{
			Worker: i, Core: w.core.ID, Socket: w.socket,
			App: f.app.spec.Name, Type: f.app.spec.Type, Stage: u.index, Stages: len(f.stages),
			BatchOccupancy:  occupancy(d.batchSum, d.batchCnt, w.batch),
			ClippedBatches:  d.clipped,
			CyclesPerPacket: delta.PerPacket(delta.Cycles),
			RemotePerPacket: delta.PerPacket(delta.RemoteRefs),
		}
		if winSec := float64(d.clock) / r.cfg.Cfg.ClockHz; winSec > 0 {
			tele.PPS = float64(delta.Packets) / winSec
			tele.RefsPerSec = float64(delta.L3Refs) / winSec
			tele.HitsPerSec = float64(delta.L3Hits) / winSec
			tele.RemoteRefsPerSec = float64(delta.RemoteRefs) / winSec
		}
		// The worker's input is the previous stage's hand-off ring; stage
		// 0 of a ring-fed flow has the receive ring.
		if u.in != nil {
			tele.RingDepth, tele.RingCap = u.in.Len(), u.in.Cap()
		} else if f.ring != nil {
			tele.RingDepth, tele.RingCap = f.ring.Len(), f.ring.Cap()
		}
		if f.control != nil {
			tele.DelayCycles = f.control.Delay()
		}
		win.sample.Workers[i] = tele
		win.live[i] = core.LiveFlow{
			Worker: i, Type: f.app.spec.Type, Socket: w.socket,
			RefsPerSec: tele.RefsPerSec,
			// Chain stages contend for their socket but migrate only as a
			// unit, which single-swap re-placement cannot do.
			Pinned: len(f.stages) > 1,
		}
	}

	// Fill in the post-copy remote rates of migrations recorded at earlier
	// control steps, from the first post-swap window in which the moved
	// flow actually processed traffic (copy traffic is excluded — swap
	// re-baselined the mark after the copy, and a long copy can leave the
	// destination core idle for several quanta, so a zero-packet window
	// stays pending rather than recording a phantom rate). Migrations
	// whose measurement never lands keep the NaN sentinel: "unmeasured",
	// not "local".
	pending := r.pendingPost[:0]
	for _, pp := range r.pendingPost {
		rate := win.remoteRate(pp.worker)
		if math.IsNaN(rate) {
			pending = append(pending, pp)
		} else if m := &r.migrations[pp.mig]; pp.side == 0 {
			m.RemotePerPktAfterA = rate
		} else {
			m.RemotePerPktAfterB = rate
		}
	}
	r.pendingPost = pending

	win.drops = core.PredictLiveDrops(r.curves, win.live)
	for i, d := range win.drops {
		win.sample.Workers[i].PredictedDrop = d
		a := r.workers[i].unit.fl.app
		a.predSum += d
		a.predCnt++
	}
	return win
}

// decide is the policy: admission control, then live re-placement across
// sockets when the measured placement's predicted drop crosses the
// threshold. Its decisions are recorded on the window's sample.
func (r *Runtime) decide(win *window) {
	// Admission control: clamp flows to their profiled reference rate. A
	// chain is throttled as one unit: its stages' reference rates are
	// summed (the solo profile measured the whole graph) and the single
	// control element at stage 0 slows the whole chain down.
	for i, w := range r.workers {
		f := w.unit.fl
		prof := r.cfg.Profiles[f.app.spec.Type]
		if !r.cfg.Admission || f.control == nil || w.unit.index != 0 || prof.SoloRefsPerSec <= 0 {
			continue
		}
		rc := core.RateController{Limit: prof.SoloRefsPerSec}
		tele := &win.sample.Workers[i]
		var refs float64
		for _, u := range f.stages {
			refs += win.sample.Workers[u.workerIdx].RefsPerSec
		}
		tele.DelayCycles, tele.Throttled = rc.Step(refs, tele.CyclesPerPacket, f.control.Delay())
		f.control.SetDelay(tele.DelayCycles)
	}
	if r.cfg.DropThreshold > 0 && len(r.curves) > 0 {
		if a, b, ok := core.PlanRebalance(r.curves, win.live, r.cfg.DropThreshold, rebalanceMargin); ok {
			r.swap(win.live[a].Worker, win.live[b].Worker, win, max(0, slices.Max(win.drops)))
		}
	}
}

// publish hands the window out, the runtime keeping only whole-run
// accumulators: the throttle count, the residuals, latency and SLO
// evaluation, the registry, and the caller's OnWindow hook.
func (r *Runtime) publish(win *window) {
	for _, t := range win.sample.Workers {
		if t.Throttled {
			r.throttleEvents++
		}
	}
	res := r.windowResiduals(win)
	r.evalLatency(win)
	if r.obsm != nil {
		r.obsm.publish(r, win)
	}
	if r.cfg.OnWindow != nil {
		r.cfg.OnWindow(win.sample, res)
	}
}

// observedDrop is the per-replica drop comparison both the window
// residual and the whole-run report make: throughput per replica — the
// deployment unit the solo profile describes (the whole graph
// run-to-completion on one core) — against the solo baseline, capped at
// the offered rate for paced sources (offered load is sharded across
// replicas; a chain replica is one RSS target no matter how many workers
// it spans). For an unstaged app that is per worker; for a chain it asks
// Section 2.2's question directly: what did cutting the graph cost (or
// buy) against running the replica unsplit, so pipelining overhead shows
// as negative headroom only when the chain actually underperforms one
// core, not as phantom contention drop. ok is false when the interval
// measured nothing (an idle burst off-phase) or expects nothing.
func (a *appState) observedDrop(soloPPS float64, d *appMark, sec float64) (drop float64, ok bool) {
	if d.processed == 0 && d.offered == 0 {
		return 0, false
	}
	expected := soloPPS
	if a.rate > 0 && d.offered > 0 {
		if offPPS := float64(d.offered) / sec / float64(len(a.flows)); offPPS < expected {
			expected = offPPS
		}
	}
	if expected <= 0 {
		return 0, false
	}
	perReplica := float64(d.processed) / sec / float64(len(a.flows))
	return 1 - perReplica/expected, true
}
