package runtime

import (
	"fmt"

	"pktpredict/internal/hw"
	"pktpredict/internal/obs"
)

// Observability glue: when Config.Metrics is set, the runtime publishes
// its telemetry into an obs.Registry — worker hot-path counters updated
// from inside the packet loop (single atomic adds, no allocations), and
// control-window gauges/counters written at barriers from the same
// counter deltas the predictor consumes. When Config.TraceSample is set,
// staged chains tag one in N packets with a trace ID that rides the
// hand-off descriptors; every stage records its exec span in virtual
// time, exported as Chrome trace-event JSON (Runtime.Tracer).
//
// The control loop also maintains the prediction-residual time series:
// each window, each profiled app's observed drop is compared against the
// live prediction, and divergence beyond residualTolerance is
// attributed by obs.Diagnose to L3 contention, ring backpressure, or
// remote NUMA references — the paper's overload-diagnosis shape turned
// on the model itself.

// rtObs holds the runtime's registered metric handles. All With lookups
// happen here at build time; workers and the control loop only touch
// resolved handles.
type rtObs struct {
	reg *obs.Registry

	// Per-worker control-window gauges, indexed by worker id.
	pps, refs, hits, remote, remotePkt, cycPkt []*obs.Gauge
	ringDepth, ringFill, predDrop, delay       []*obs.Gauge

	// Per-worker hardware-counter totals: hwTotals[worker][i] follows the
	// enumeration order of hw.Counters.Each.
	hwTotals [][]*obs.Counter

	// Per-app accounting counters and drop/residual gauges.
	appOffered, appEnqueued, appNICDrops   map[string]*obs.Counter
	appProcessed                           map[string]*obs.Counter
	appObserved, appPredicted, appResidual map[string]*obs.Gauge
	appCause                               map[string]map[obs.Cause]*obs.Gauge

	// Chain hand-off telemetry, one per (flow, cut). Push polls (producer
	// spins on a full ring: the consumer lags) and pop polls (consumer
	// spins on an empty ring: the producer starves it) mean opposite
	// things, so they are exposed as separate families alongside the sum.
	handoffFill      map[*stage]*obs.Gauge
	handoffPolls     map[*stage]*obs.Counter
	handoffPushPolls map[*stage]*obs.Counter
	handoffPopPolls  map[*stage]*obs.Counter

	// Worker→app binding info gauges, so a scraper can join worker series
	// to apps across live migrations.
	binding    *obs.GaugeVec
	lastBound  map[int]*obs.Gauge
	migrations *obs.Counter
	copyCycles *obs.Counter
	throttles  *obs.Counter

	// Per-element attribution families. These resolve label tuples at the
	// barrier (not the hot path): the worker label follows live
	// migrations, so the series set is discovered as flows move.
	elemCycles, elemRefs   *obs.CounterVec
	elemCycPkt, elemRefPkt *obs.GaugeVec
	appDrift               map[string]*obs.Gauge

	// Per-app end-to-end latency quantiles (label: quantile) and SLO
	// telemetry (burn gauge + breach counter, only for apps declaring a
	// target).
	appLatQ  map[string][3]*obs.Gauge
	sloBurn  map[string]*obs.Gauge
	sloTripd map[string]*obs.Counter
}

// batchBuckets derives the batch-fill histogram's buckets from the
// configured batch size: {0, 1} then powers of two up to and including
// the batch itself, so the top bucket always equals the largest possible
// fill. The previous hardcoded {0,1,2,4,8,16,32} silently saturated any
// batch above 32 into one bucket. For the default batch of 32 the
// derived buckets are identical to the historical set.
func batchBuckets(batch int) []float64 {
	if batch < 1 {
		batch = 1
	}
	buckets := []float64{0, 1}
	for b := 2; b < batch; b <<= 1 {
		buckets = append(buckets, float64(b))
	}
	if batch > 1 {
		buckets = append(buckets, float64(batch))
	}
	return buckets
}

// hwCounterNames enumerates hw.Counters.Each's stable name order once.
func hwCounterNames() []string {
	var names []string
	hw.Counters{}.Each(func(name string, _ uint64) { names = append(names, name) })
	return names
}

// residualCauses is the label universe of the cause info gauge.
var residualCauses = []obs.Cause{
	obs.CauseNone, obs.CauseProfileDrift, obs.CauseNUMA, obs.CauseRing,
	obs.CauseL3, obs.CauseBetter, obs.CauseUnknown,
}

// newRtObs registers every metric family and resolves the handles for
// this runtime's workers and apps. It also hands each worker its
// hot-path handles (packet counter, batch-fill histogram, spin-poll
// counter).
func newRtObs(reg *obs.Registry, r *Runtime) *rtObs {
	m := &rtObs{
		reg:              reg,
		appOffered:       map[string]*obs.Counter{},
		appEnqueued:      map[string]*obs.Counter{},
		appNICDrops:      map[string]*obs.Counter{},
		appProcessed:     map[string]*obs.Counter{},
		appObserved:      map[string]*obs.Gauge{},
		appPredicted:     map[string]*obs.Gauge{},
		appResidual:      map[string]*obs.Gauge{},
		appCause:         map[string]map[obs.Cause]*obs.Gauge{},
		handoffFill:      map[*stage]*obs.Gauge{},
		handoffPolls:     map[*stage]*obs.Counter{},
		handoffPushPolls: map[*stage]*obs.Counter{},
		handoffPopPolls:  map[*stage]*obs.Counter{},
		lastBound:        map[int]*obs.Gauge{},
		appDrift:         map[string]*obs.Gauge{},
		appLatQ:          map[string][3]*obs.Gauge{},
		sloBurn:          map[string]*obs.Gauge{},
		sloTripd:         map[string]*obs.Counter{},
	}

	packets := reg.Counter("dataplane_worker_packets_total",
		"packets fully processed, incremented from the worker hot path", "worker")
	batch := reg.Histogram("dataplane_worker_batch_fill",
		"packets per ring poll (batch occupancy)", batchBuckets(r.cfg.Batch), "worker")
	clipped := reg.Counter("dataplane_worker_batch_clipped_total",
		"batch polls cut short by the quantum boundary, excluded from batch_fill", "worker")
	spins := reg.Counter("dataplane_worker_spin_polls_total",
		"hand-off ring spin-wait iterations charged by this worker", "worker")

	gv := func(name, help string) *obs.GaugeVec { return reg.Gauge(name, help, "worker") } //dataplane:allow metriclint registration helper; every call below passes a constant family name
	ppsV := gv("dataplane_worker_pps", "packets per virtual second, last control window")
	refsV := gv("dataplane_worker_l3_refs_per_sec", "L3 references per virtual second (aggressiveness)")
	hitsV := gv("dataplane_worker_l3_hits_per_sec", "L3 hits per virtual second (sensitivity)")
	remV := gv("dataplane_worker_remote_refs_per_sec", "remote-socket L3 misses per virtual second")
	remPkV := gv("dataplane_worker_remote_per_packet", "remote references per processed packet (locality)")
	cycV := gv("dataplane_worker_cycles_per_packet", "core cycles per processed packet")
	depthV := gv("dataplane_worker_ring_depth", "input or hand-off ring occupancy at the barrier")
	fillV := gv("dataplane_worker_ring_fill", "ring occupancy fraction at the barrier")
	predV := gv("dataplane_worker_predicted_drop", "live curve-predicted drop for the bound flow")
	delayV := gv("dataplane_worker_delay_cycles", "admission-control delay applied to the bound flow")
	hwV := reg.Counter("dataplane_worker_hw_total",
		"per-core hardware counter totals since measurement start", "worker", "counter")

	hwNames := hwCounterNames()
	for i, w := range r.workers {
		id := fmt.Sprint(i)
		w.mPackets = packets.With(id)
		w.mBatch = batch.With(id)
		w.mClipped = clipped.With(id)
		w.mSpins = spins.With(id)
		m.pps = append(m.pps, ppsV.With(id))
		m.refs = append(m.refs, refsV.With(id))
		m.hits = append(m.hits, hitsV.With(id))
		m.remote = append(m.remote, remV.With(id))
		m.remotePkt = append(m.remotePkt, remPkV.With(id))
		m.cycPkt = append(m.cycPkt, cycV.With(id))
		m.ringDepth = append(m.ringDepth, depthV.With(id))
		m.ringFill = append(m.ringFill, fillV.With(id))
		m.predDrop = append(m.predDrop, predV.With(id))
		m.delay = append(m.delay, delayV.With(id))
		hwRow := make([]*obs.Counter, len(hwNames))
		for j, n := range hwNames {
			hwRow[j] = hwV.With(id, n)
		}
		m.hwTotals = append(m.hwTotals, hwRow)
	}

	offV := reg.Counter("dataplane_app_offered_total", "packets the traffic source generated", "app")
	enqV := reg.Counter("dataplane_app_enqueued_total", "packets accepted into input rings", "app")
	nicV := reg.Counter("dataplane_app_nic_drops_total", "packets tail-dropped at full input rings", "app")
	procV := reg.Counter("dataplane_app_processed_total", "packets that entered a worker's pipeline", "app")
	obsV := reg.Gauge("dataplane_app_observed_drop", "per-replica observed drop, last control window", "app")
	apV := reg.Gauge("dataplane_app_predicted_drop", "mean live-predicted drop, last control window", "app")
	resV := reg.Gauge("dataplane_app_residual", "observed minus predicted drop, last control window", "app")
	causeV := reg.Gauge("dataplane_app_residual_cause",
		"1 on the residual cause attributed this window, 0 elsewhere", "app", "cause")
	for _, a := range r.disp.apps {
		name := a.spec.Name
		m.appOffered[name] = offV.With(name)
		m.appEnqueued[name] = enqV.With(name)
		m.appNICDrops[name] = nicV.With(name)
		m.appProcessed[name] = procV.With(name)
		m.appObserved[name] = obsV.With(name)
		m.appPredicted[name] = apV.With(name)
		m.appResidual[name] = resV.With(name)
		causes := map[obs.Cause]*obs.Gauge{}
		for _, c := range residualCauses {
			causes[c] = causeV.With(name, string(c))
		}
		m.appCause[name] = causes
	}

	hofV := reg.Gauge("dataplane_handoff_fill",
		"forward hand-off ring occupancy fraction at the barrier", "app", "replica", "cut")
	hopV := reg.Counter("dataplane_handoff_polls_total",
		"spin-wait iterations on the cut's forward ring (producer + consumer)", "app", "replica", "cut")
	hopPushV := reg.Counter("dataplane_handoff_push_polls_total",
		"producer spin-wait iterations on the cut's forward ring (ring full: consumer lags)", "app", "replica", "cut")
	hopPopV := reg.Counter("dataplane_handoff_pop_polls_total",
		"consumer spin-wait iterations on the cut's forward ring (ring empty: producer starves)", "app", "replica", "cut")
	for _, f := range r.flows {
		for _, u := range f.stages {
			if u.out == nil {
				continue
			}
			app, rep, cut := f.app.spec.Name, fmt.Sprint(f.replica), fmt.Sprint(u.index)
			m.handoffFill[u] = hofV.With(app, rep, cut)
			m.handoffPolls[u] = hopV.With(app, rep, cut)
			m.handoffPushPolls[u] = hopPushV.With(app, rep, cut)
			m.handoffPopPolls[u] = hopPopV.With(app, rep, cut)
		}
	}

	m.elemCycles = reg.Counter("dataplane_element_cycles_total",
		"exec cycles attributed to the element since measurement start", "element", "app", "stage", "worker")
	m.elemRefs = reg.Counter("dataplane_element_l3_refs_total",
		"L3 references attributed to the element since measurement start", "element", "app", "stage", "worker")
	m.elemCycPkt = reg.Gauge("dataplane_element_cycles_per_packet",
		"element cycles per flow packet, last control window", "element", "app", "stage", "worker")
	m.elemRefPkt = reg.Gauge("dataplane_element_refs_per_packet",
		"element L3 references per flow packet, last control window", "element", "app", "stage", "worker")
	driftV := reg.Gauge("dataplane_app_drift_ratio",
		"worst element live-over-baseline refs/pkt ratio, 0 when no element drifted", "app")
	latV := reg.Gauge("dataplane_app_latency_cycles",
		"end-to-end latency quantile in core cycles, last non-empty control window", "app", "quantile")
	burnV := reg.Gauge("dataplane_app_slo_burn_rate",
		"fraction of window packets over the latency SLO target, relative to the 1% p99 budget", "app")
	tripV := reg.Counter("dataplane_app_slo_breaches_total",
		"control windows whose window p99 exceeded the latency SLO target", "app")
	for _, a := range r.disp.apps {
		name := a.spec.Name
		m.appDrift[name] = driftV.With(name)
		m.appLatQ[name] = [3]*obs.Gauge{
			latV.With(name, "0.5"), latV.With(name, "0.99"), latV.With(name, "0.999"),
		}
		if a.spec.SLOP99US > 0 {
			m.sloBurn[name] = burnV.With(name)
			m.sloTripd[name] = tripV.With(name)
		}
	}

	m.binding = reg.Gauge("dataplane_worker_app",
		"1 while the worker runs the labelled app stage; rebound on live migration", "worker", "app", "stage")
	m.migrations = reg.Counter("dataplane_migrations_total",
		"live cross-socket re-placements performed").With()
	m.copyCycles = reg.Counter("dataplane_state_copy_cycles_total",
		"destination-core cycles spent copying migrated state").With()
	m.throttles = reg.Counter("dataplane_throttle_events_total",
		"control windows in which admission tightened a delay").With()
	return m
}

// publishWindow writes one control window's telemetry into the registry:
// per-worker gauges from the sample, hardware-counter deltas, app
// accounting deltas, hand-off ring state, and binding info. Runs at the
// barrier (workers parked), so plain reads of owner-written state are
// safe; all registry writes are atomics, so a concurrent scrape sees a
// consistent-enough page without stopping the dataplane.
func (r *Runtime) publishWindow(sample ControlSample, deltas []hw.Counters) {
	m := r.obsm
	if m == nil {
		return
	}
	for _, t := range sample.Workers {
		i := t.Worker
		m.pps[i].Set(t.PPS)
		m.refs[i].Set(t.RefsPerSec)
		m.hits[i].Set(t.HitsPerSec)
		m.remote[i].Set(t.RemoteRefsPerSec)
		m.remotePkt[i].Set(t.RemotePerPacket)
		m.cycPkt[i].Set(t.CyclesPerPacket)
		m.ringDepth[i].Set(float64(t.RingDepth))
		if t.RingCap > 0 {
			m.ringFill[i].Set(float64(t.RingDepth) / float64(t.RingCap))
		}
		m.predDrop[i].Set(t.PredictedDrop)
		m.delay[i].Set(float64(t.DelayCycles))
		for j, v := range eachValues(deltas[i]) {
			m.hwTotals[i][j].Add(v)
		}
		// Binding info: flip the gauge when a migration rebound the worker.
		if t.App == "" {
			if old := m.lastBound[i]; old != nil {
				old.Set(0)
				delete(m.lastBound, i)
			}
			continue
		}
		g := m.binding.With(fmt.Sprint(i), t.App, fmt.Sprint(t.Stage))
		if old := m.lastBound[i]; old != nil && old != g {
			old.Set(0)
		}
		g.Set(1)
		m.lastBound[i] = g
	}

	for _, a := range r.disp.apps {
		name := a.spec.Name
		m.appOffered[name].Add(a.offered - a.prevOffered)
		m.appEnqueued[name].Add(a.enqueued - a.prevEnqueued)
		m.appNICDrops[name].Add(a.nicDrops - a.prevNICDrops)
		var processed uint64
		for _, f := range a.flows {
			processed += f.packets
		}
		m.appProcessed[name].Add(processed - a.prevProcessed)
	}

	for _, f := range r.flows {
		for _, u := range f.stages {
			if u.out == nil {
				continue
			}
			m.handoffFill[u].Set(float64(u.out.Len()) / float64(u.out.Cap()))
			// The cursors roll forward in rollWindowAccounting, which runs
			// whether or not a registry is configured — windowResiduals
			// reads the same per-window deltas for diagnosis.
			push, pop := u.out.PushPolls(), u.out.PopPolls()
			m.handoffPolls[u].Add(push + pop - u.prevPushPolls - u.prevPopPolls)
			m.handoffPushPolls[u].Add(push - u.prevPushPolls)
			m.handoffPopPolls[u].Add(pop - u.prevPopPolls)
		}
	}
}

// eachValues flattens a counter delta in hw.Counters.Each order.
func eachValues(c hw.Counters) []uint64 {
	out := make([]uint64, 0, 13)
	c.Each(func(_ string, v uint64) { out = append(out, v) })
	return out
}

// overheadElem names table slot 0 in per-element telemetry: cost charged
// outside any element's Process bracket (source pulls, ring polls,
// buffer recycling).
const overheadElem = "overhead"

// elemWindow is one (flow, stage, element) cost delta over a control
// window — the unit of per-element attribution and drift detection.
type elemWindow struct {
	app     string
	element string
	stage   int
	worker  int
	pkts    uint64 // packets the flow processed this window
	cells   hw.ElemCell
}

// stageElems visits every per-element cell of every pipeline flow's
// stages, differenced against the cursor table since picks (a stage's
// prevElems or baseElems) and named the way telemetry names it. Call it
// only while the owning workers are parked (a barrier, or after Run), so
// plain reads of their cells are safe.
func (r *Runtime) stageElems(since func(*stage) []hw.ElemCell, visit func(f *flow, u *stage, element string, d hw.ElemCell)) {
	for _, f := range r.flows {
		if f.pipe == nil {
			continue
		}
		nodes := f.pipe.Nodes()
		for _, u := range f.stages {
			base := since(u)
			for i := range u.elems {
				var b hw.ElemCell
				if i < len(base) {
					b = base[i]
				}
				name := overheadElem
				if i > 0 {
					name = nodes[i-1].Name
				}
				visit(f, u, name, u.elems[i].Sub(b))
			}
		}
	}
}

// windowElems differences every stage's per-element table against its
// control-window cursor, skipping cells that accrued nothing. The
// cursors roll forward in rollWindowAccounting after the window's
// consumers have read them.
func (r *Runtime) windowElems() []elemWindow {
	var out []elemWindow
	r.stageElems(func(u *stage) []hw.ElemCell { return u.prevElems }, func(f *flow, u *stage, element string, d hw.ElemCell) {
		if d.Cycles == 0 && d.L3Refs == 0 {
			return
		}
		out = append(out, elemWindow{app: f.app.spec.Name, element: element, stage: u.index,
			worker: u.workerIdx, pkts: f.packets - f.prevPackets, cells: d})
	})
	return out
}

// publishElems writes the window's per-element cost deltas into the
// registry. Label tuples resolve here at the barrier — the worker label
// follows the flow across migrations, so a migrated flow's costs start a
// new series on its new core, as a per-core hardware profiler would see.
func (r *Runtime) publishElems(elems []elemWindow) {
	m := r.obsm
	if m == nil {
		return
	}
	for _, e := range elems {
		stage, worker := fmt.Sprint(e.stage), fmt.Sprint(e.worker)
		m.elemCycles.With(e.element, e.app, stage, worker).Add(e.cells.Cycles)
		m.elemRefs.With(e.element, e.app, stage, worker).Add(e.cells.L3Refs)
		if e.pkts > 0 {
			m.elemCycPkt.With(e.element, e.app, stage, worker).Set(float64(e.cells.Cycles) / float64(e.pkts))
			m.elemRefPkt.With(e.element, e.app, stage, worker).Set(float64(e.cells.L3Refs) / float64(e.pkts))
		}
	}
}

// Profile-drift thresholds: an element drifts when its live refs/pkt is
// at least driftRatio times its offline baseline and clears the
// significance floor (driftMinRefs); elements absent from the offline
// profile — they appeared after profiling — are compared against
// driftBaseFloor instead of zero. Memory references are the drift signal
// because trace replay makes them contention-invariant: a co-runner can
// inflate an element's cycles/pkt without its behaviour changing, but
// refs/pkt only moves when the element itself issues different accesses.
// (The dual limitation is honest too: a purely compute-bound behaviour
// change is invisible to this detector; see docs/observability.md.)
const (
	driftRatio     = 2.0
	driftMinRefs   = 0.5
	driftBaseFloor = 0.25
)

// windowDrift scans one app's per-element window costs for the element
// that most exceeds its offline baseline, filling the WindowObs drift
// evidence. It is a no-op unless the app's profile carries element
// baselines (len(prof.Elements) > 0) — hand-built profiles without them
// must not trip drift on every element.
func windowDrift(o *obs.WindowObs, prof FlowProfile, byElem map[string]hw.ElemCell, pkts uint64) {
	if len(prof.Elements) == 0 || pkts == 0 {
		return
	}
	best := 0.0
	for name, cells := range byElem {
		liveRefs := float64(cells.L3Refs) / float64(pkts)
		if liveRefs < driftMinRefs {
			continue
		}
		baseline, known := prof.Elements[name]
		base := baseline.RefsPerPacket
		if base < driftBaseFloor {
			base = driftBaseFloor
		}
		ratio := liveRefs / base
		if ratio >= driftRatio && ratio > best {
			best = ratio
			o.DriftElement = name
			o.DriftRefRatio = ratio
			o.DriftLiveRefs = liveRefs
			o.DriftBaseRefs = baseline.RefsPerPacket
			o.DriftLiveCycPP = float64(cells.Cycles) / float64(pkts)
			o.DriftKnown = known
		}
	}
}

// evalLatency merges each app's per-flow (and per-stage) latency shards
// into the window's delta histogram, publishes its quantiles, and
// evaluates the app's latency SLO: the burn rate is the fraction of
// window packets over the target relative to the 1% budget a p99 target
// implies, and a window whose p99 exceeds the target counts one breach.
// Runs at the barrier regardless of whether a registry is configured —
// breach counts feed the report and the sweep gate, not just /metrics.
func (r *Runtime) evalLatency() {
	clockHz := r.cfg.Cfg.ClockHz
	for _, a := range r.disp.apps {
		var d obs.LatHist
		for _, f := range a.flows {
			for _, u := range f.stages {
				ud := u.lat.Sub(&u.prevLat)
				d.Merge(&ud)
			}
		}
		if d.Count() == 0 {
			continue
		}
		name := a.spec.Name
		p99 := d.Quantile(0.99)
		if m := r.obsm; m != nil {
			q := m.appLatQ[name]
			q[0].Set(d.Quantile(0.50))
			q[1].Set(p99)
			q[2].Set(d.Quantile(0.999))
		}
		if a.spec.SLOP99US <= 0 {
			continue
		}
		target := uint64(a.spec.SLOP99US * 1e-6 * clockHz)
		a.lastBurn = float64(d.CountOver(target)) / float64(d.Count()) / 0.01
		breached := p99 > float64(target)
		if breached {
			a.sloBreaches++
		}
		if m := r.obsm; m != nil {
			m.sloBurn[name].Set(a.lastBurn)
			if breached {
				m.sloTripd[name].Inc()
			}
		}
	}
}

// residualTolerance is the |observed − predicted| drop within which a
// window's prediction is considered to hold.
const residualTolerance = 0.05

// windowResiduals computes the window's per-app prediction residuals and
// diagnoses each divergence from the same counter evidence the
// predictor reads. winSec is the window's wall length in virtual
// seconds. Apps without a solo profile (synthetic probes, unprofiled
// customs) produce no residual — there is no prediction to diverge from.
func (r *Runtime) windowResiduals(q int, tsec, winSec float64, sample ControlSample, deltas []hw.Counters, elems []elemWindow) []obs.Residual {
	if winSec <= 0 {
		return nil
	}
	// Per-app per-element window costs, summed across replicas and
	// stages: the drift detector's live side.
	byApp := map[string]map[string]hw.ElemCell{}
	for _, e := range elems {
		em := byApp[e.app]
		if em == nil {
			em = map[string]hw.ElemCell{}
			byApp[e.app] = em
		}
		c := em[e.element]
		c.Cycles += e.cells.Cycles
		c.L3Refs += e.cells.L3Refs
		c.L3Hits += e.cells.L3Hits
		c.L3Misses += e.cells.L3Misses
		em[e.element] = c
	}
	var out []obs.Residual
	for _, a := range r.disp.apps {
		// Hidden-trigger aggressors keep their residual series on purpose:
		// the moment the flow's behaviour departs its profiled type, the
		// residual spikes and the diagnoser names the evidence — the
		// Section 4 detection story as live telemetry.
		prof, ok := r.cfg.Profiles[a.spec.Type]
		if !ok || prof.SoloPPS <= 0 || a.spec.Type.Synthetic() {
			continue
		}
		var processed uint64
		for _, f := range a.flows {
			processed += f.packets
		}
		winProcessed := processed - a.prevProcessed
		winOffered := a.offered - a.prevOffered
		winNIC := a.nicDrops - a.prevNICDrops
		if winProcessed == 0 && winOffered == 0 {
			continue // idle window (burst off-phase): nothing measured
		}

		// Expected per-replica throughput: the solo baseline, capped at the
		// offered rate for paced sources — the same comparison the
		// whole-run report makes, one window at a time.
		expected := prof.SoloPPS
		if a.rate > 0 && winOffered > 0 {
			offPPS := float64(winOffered) / winSec / float64(len(a.flows))
			if offPPS < expected {
				expected = offPPS
			}
		}
		if expected <= 0 {
			continue
		}
		perReplica := float64(winProcessed) / winSec / float64(len(a.flows))
		observed := 1 - perReplica/expected

		// Evidence across the app's workers: predicted drop averaged, ring
		// fill worst-case, locality and hit rate packet-weighted, and the
		// competing reference pressure on the app's busiest socket.
		var predSum float64
		var predN int
		var ringFill float64
		var remRefs, pkts, l3Refs, l3Hits uint64
		sockets := map[int]bool{}
		for _, t := range sample.Workers {
			if t.App != a.spec.Name {
				continue
			}
			predSum += t.PredictedDrop
			predN++
			if t.RingCap > 0 {
				if f := float64(t.RingDepth) / float64(t.RingCap); f > ringFill {
					ringFill = f
				}
			}
			d := deltas[t.Worker]
			remRefs += d.RemoteRefs
			pkts += d.Packets
			l3Refs += d.L3Refs
			l3Hits += d.L3Hits
			sockets[t.Socket] = true
		}
		if predN == 0 {
			continue
		}
		var competing float64
		for sock := range sockets {
			var refs float64
			for _, t := range sample.Workers {
				if t.Socket == sock && t.App != a.spec.Name {
					refs += t.RefsPerSec
				}
			}
			if refs > competing {
				competing = refs
			}
		}
		o := obs.WindowObs{
			App:            a.spec.Name,
			Predicted:      predSum / float64(predN),
			Observed:       observed,
			RingFill:       ringFill,
			SoloRefsPerSec: prof.SoloRefsPerSec,
			CompetingRefs:  competing,
		}
		// Hand-off spin-poll deltas across the app's cuts, per direction:
		// the ring-backpressure rung uses them to name which side of a
		// congested cut is at fault (the cursors roll forward afterwards
		// in rollWindowAccounting).
		for _, f := range a.flows {
			for _, u := range f.stages {
				if u.out == nil {
					continue
				}
				o.HandoffPushPolls += u.out.PushPolls() - u.prevPushPolls
				o.HandoffPopPolls += u.out.PopPolls() - u.prevPopPolls
			}
		}
		if winOffered > 0 {
			o.NICDropRate = float64(winNIC) / float64(winOffered)
		}
		if pkts > 0 {
			o.RemotePerPacket = float64(remRefs) / float64(pkts)
		}
		if l3Refs > 0 {
			o.HitRate = float64(l3Hits) / float64(l3Refs)
		}
		windowDrift(&o, prof, byApp[a.spec.Name], winProcessed)
		if m := r.obsm; m != nil {
			m.appDrift[a.spec.Name].Set(o.DriftRefRatio)
		}
		out = append(out, obs.NewResidual(q, tsec, residualTolerance, o))
	}
	return out
}

// recordResiduals publishes the window's residuals into the registry and
// appends them to the retained series (same retention policy as Stats).
func (r *Runtime) recordResiduals(res []obs.Residual) {
	for _, rr := range res {
		if m := r.obsm; m != nil {
			m.appObserved[rr.App].Set(rr.Observed)
			m.appPredicted[rr.App].Set(rr.Predicted)
			m.appResidual[rr.App].Set(rr.Residual)
			for c, g := range m.appCause[rr.App] {
				if c == rr.Cause {
					g.Set(1)
				} else {
					g.Set(0)
				}
			}
		}
	}
	retain := r.cfg.StatsRetention
	if retain <= 0 {
		retain = DefaultStatsRetention
	}
	capN := retain * len(r.disp.apps)
	for _, rr := range res {
		if len(r.residuals) < capN {
			r.residuals = append(r.residuals, rr)
			continue
		}
		r.residuals[r.residualHead] = rr
		r.residualHead = (r.residualHead + 1) % len(r.residuals)
	}
}

// rollWindowAccounting advances every app's previous-window cursors
// after a control window's deltas have been consumed (publishWindow and
// windowResiduals both read them).
func (r *Runtime) rollWindowAccounting() {
	for _, a := range r.disp.apps {
		a.prevOffered, a.prevEnqueued, a.prevNICDrops = a.offered, a.enqueued, a.nicDrops
		var processed uint64
		for _, f := range a.flows {
			processed += f.packets
		}
		a.prevProcessed = processed
	}
	for _, f := range r.flows {
		f.prevPackets = f.packets
		for _, u := range f.stages {
			u.prevElems = snapshotElems(u.elems, u.prevElems)
			u.prevLat = u.lat
			if u.out != nil {
				u.prevPushPolls, u.prevPopPolls = u.out.PushPolls(), u.out.PopPolls()
			}
		}
	}
}

// Residuals returns the retained prediction-residual series, oldest
// first. Call after Run (or from OnWindow, where workers are parked).
func (r *Runtime) Residuals() []obs.Residual {
	out := make([]obs.Residual, 0, len(r.residuals))
	for i := 0; i < len(r.residuals); i++ {
		out = append(out, r.residuals[(r.residualHead+i)%len(r.residuals)])
	}
	return out
}

// Tracer returns the packet tracer, nil unless Config.TraceSample is
// set. Export its events (WriteChrome) only after Run returns.
func (r *Runtime) Tracer() *obs.Tracer { return r.tracer }

// traceCap bounds each worker's trace buffer in events; overflow counts
// as dropped, never blocks the worker.
const traceCap = 8192

// buildTracer sizes the tracer to the worker set and names its trace
// processes (one per staged flow replica) and threads (one per worker).
func (r *Runtime) buildTracer() {
	if r.cfg.TraceSample <= 0 {
		return
	}
	r.tracer = obs.NewTracer(uint64(r.cfg.TraceSample), traceCap, len(r.workers))
	for i, w := range r.workers {
		w.shard = r.tracer.Shard(i)
		r.tracer.SetThread(i, fmt.Sprintf("worker%d@core%d", i, w.core.ID))
	}
	for _, f := range r.flows {
		if len(f.stages) > 1 {
			r.tracer.SetProcess(f.id, fmt.Sprintf("%s/%d", f.app.spec.Name, f.replica))
		}
	}
}
