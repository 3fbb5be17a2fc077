package runtime

import (
	"fmt"

	"pktpredict/internal/hw"
	"pktpredict/internal/obs"
)

// Observability glue: when Config.Metrics is set, the runtime publishes
// its telemetry into an obs.Registry at control barriers, every family
// from the same window deltas the predictor consumes; no worker writes a
// registry handle. When Config.TraceSample is set, staged chains tag one
// in N packets with a trace ID that rides the hand-off descriptors;
// every stage records its exec span in virtual time, exported as Chrome
// trace-event JSON (Runtime.Tracer).
//
// The control loop also maintains the prediction-residual time series:
// each window, each profiled app's observed drop is compared against the
// live prediction, and divergence beyond residualTolerance is
// attributed by obs.Diagnose to L3 contention, ring backpressure, or
// remote NUMA references — the paper's overload-diagnosis shape turned
// on the model itself.

// gaugeRow and counterRow are one metric family each: the registered vec
// (the reg.Gauge/reg.Counter call sits in the row; testdata/families.golden
// pins every name and label set) paired with the window field it
// publishes. A label scope's families are a slice of rows, resolved to
// handles once per label tuple and published by one loop.
type gaugeRow[S any] struct {
	vec *obs.GaugeVec
	of  func(S) float64
}

type counterRow[S any] struct {
	vec *obs.CounterVec
	of  func(S) uint64
}

func resolveGauges[S any](rows []gaugeRow[S], labels ...string) []*obs.Gauge {
	hs := make([]*obs.Gauge, len(rows))
	for i, row := range rows {
		hs[i] = row.vec.With(labels...)
	}
	return hs
}

func resolveCounters[S any](rows []counterRow[S], labels ...string) []*obs.Counter {
	hs := make([]*obs.Counter, len(rows))
	for i, row := range rows {
		hs[i] = row.vec.With(labels...)
	}
	return hs
}

func setGauges[S any](rows []gaugeRow[S], hs []*obs.Gauge, s S) {
	for i, row := range rows {
		hs[i].Set(row.of(s))
	}
}

func addCounters[S any](rows []counterRow[S], hs []*obs.Counter, s S) {
	for i, row := range rows {
		hs[i].Add(row.of(s))
	}
}

// rtObs holds the runtime's metric families and resolved handles. Every
// With lookup happens at build time or in worker.bind (a swap at a
// barrier); the control loop only touches resolved handles, and workers
// none.
type rtObs struct {
	workerCRows []counterRow[*workerMark]
	workerRows  []gaugeRow[*WorkerTelemetry]
	appRows     []counterRow[*appMark]
	residRows   []gaugeRow[*obs.Residual]
	cutRows     []counterRow[*stageMark]
	elemCRows   []counterRow[elemWindow]
	elemGRows   []gaugeRow[elemWindow]
	emitRows    []counterRow[*groupMark]

	// binding is the worker→app info gauge, so a scraper can join worker
	// series to apps across live migrations.
	binding                           *obs.GaugeVec
	migrations, copyCycles, throttles *obs.Counter

	workers []workerHandles // by worker id
	apps    []appHandles    // by app index
	cuts    []cutHandles
	emits   [][]*obs.Counter // by group, by emitRows; nil for a group that cannot have an emitter
}

type workerHandles struct {
	counters []*obs.Counter // by workerCRows
	spins    *obs.Counter
	gauges   []*obs.Gauge   // by workerRows
	hw       []*obs.Counter // in hw.Counters.Each order
}

type appHandles struct {
	counters []*obs.Counter // by appRows
	resid    []*obs.Gauge   // by residRows
	cause    []*obs.Gauge   // by residualCauses
	drift    *obs.Gauge
	lat      [3]*obs.Gauge // p50, p99, p999
	// SLO telemetry, only for apps declaring a target.
	burn     *obs.Gauge
	breaches *obs.Counter
}

// cutHandles is one chain cut's hand-off telemetry. Push polls (producer
// spins on a full ring: the consumer lags) and pop polls (consumer spins
// on an empty ring: the producer starves it) mean opposite things, so
// they are exposed as separate families alongside the sum.
type cutHandles struct {
	u     *stage // the producing stage
	fill  *obs.Gauge
	polls []*obs.Counter // by cutRows
}

// elemHandles is one table slot's element rows under the current binding
// (both nil for a slot another stage of the chain executes).
type elemHandles struct {
	counters []*obs.Counter // by elemCRows
	gauges   []*obs.Gauge   // by elemGRows
}

// elemWindow is one (stage, element) cost delta over a control window —
// the unit of per-element attribution.
type elemWindow struct {
	cells hw.ElemCost
	pkts  uint64 // packets the flow processed this window
}

// residualCauses is the label universe of the cause info gauge.
var residualCauses = []obs.Cause{
	obs.CauseNone, obs.CauseProfileDrift, obs.CauseNUMA, obs.CauseRing,
	obs.CauseL3, obs.CauseBetter, obs.CauseUnknown,
}

// overheadElem names table slot 0 in per-element telemetry: cost charged
// outside any element's Process bracket (source pulls, ring polls,
// buffer recycling).
const overheadElem = "overhead"

// elemName names table slot i of the flow's stages the way telemetry
// names it.
func (f *flow) elemName(i int) string {
	if i == 0 {
		return overheadElem
	}
	return f.pipe.Nodes()[i-1].Name
}

// newRtObs registers every metric family (docs/observability.md lists
// them in this order) and resolves the handles of this runtime's workers,
// apps and cuts; the binding-scoped ones follow in bind. Every family
// counts from measurement start.
func newRtObs(reg *obs.Registry, r *Runtime) *rtObs {
	m := &rtObs{}
	m.workerCRows = []counterRow[*workerMark]{
		{reg.Counter("dataplane_worker_packets_total", "packets whose trace the worker executed", "worker"),
			func(d *workerMark) uint64 { return d.counters.Packets }},
		{reg.Counter("dataplane_worker_batch_polls_total", "occupancy-counted batch polls", "worker"),
			func(d *workerMark) uint64 { return d.batchCnt }},
		{reg.Counter("dataplane_worker_batch_filled_total", "packets drained by occupancy-counted batch polls", "worker"),
			func(d *workerMark) uint64 { return d.batchSum }},
		{reg.Counter("dataplane_worker_batch_clipped_total",
			"batch polls cut short by the quantum boundary, excluded from batch_polls", "worker"),
			func(d *workerMark) uint64 { return d.clipped }},
	}
	spins := reg.Counter("dataplane_worker_spin_polls_total",
		"hand-off ring spin-wait iterations charged by this worker", "worker")
	m.workerRows = []gaugeRow[*WorkerTelemetry]{
		{reg.Gauge("dataplane_worker_pps", "packets per virtual second, last control window", "worker"),
			func(t *WorkerTelemetry) float64 { return t.PPS }},
		{reg.Gauge("dataplane_worker_l3_refs_per_sec", "L3 references per virtual second (aggressiveness)", "worker"),
			func(t *WorkerTelemetry) float64 { return t.RefsPerSec }},
		{reg.Gauge("dataplane_worker_l3_hits_per_sec", "L3 hits per virtual second (sensitivity)", "worker"),
			func(t *WorkerTelemetry) float64 { return t.HitsPerSec }},
		{reg.Gauge("dataplane_worker_remote_refs_per_sec", "remote-socket L3 misses per virtual second", "worker"),
			func(t *WorkerTelemetry) float64 { return t.RemoteRefsPerSec }},
		{reg.Gauge("dataplane_worker_remote_per_packet", "remote references per processed packet (locality)", "worker"),
			func(t *WorkerTelemetry) float64 { return t.RemotePerPacket }},
		{reg.Gauge("dataplane_worker_cycles_per_packet", "core cycles per processed packet", "worker"),
			func(t *WorkerTelemetry) float64 { return t.CyclesPerPacket }},
		{reg.Gauge("dataplane_worker_ring_depth", "input or hand-off ring occupancy at the barrier", "worker"),
			func(t *WorkerTelemetry) float64 { return float64(t.RingDepth) }},
		{reg.Gauge("dataplane_worker_ring_fill", "ring occupancy fraction at the barrier", "worker"),
			func(t *WorkerTelemetry) float64 {
				if t.RingCap == 0 {
					return 0 // a synthetic flow has no input ring
				}
				return float64(t.RingDepth) / float64(t.RingCap)
			}},
		{reg.Gauge("dataplane_worker_predicted_drop", "live curve-predicted drop for the bound flow", "worker"),
			func(t *WorkerTelemetry) float64 { return t.PredictedDrop }},
		{reg.Gauge("dataplane_worker_delay_cycles", "admission-control delay applied to the bound flow", "worker"),
			func(t *WorkerTelemetry) float64 { return float64(t.DelayCycles) }},
	}
	hwTotals := reg.Counter("dataplane_worker_hw_total",
		"per-core hardware counter totals since measurement start", "worker", "counter")
	for i := range r.workers {
		id := fmt.Sprint(i)
		wh := workerHandles{counters: resolveCounters(m.workerCRows, id), spins: spins.With(id),
			gauges: resolveGauges(m.workerRows, id)}
		hw.Counters{}.Each(func(name string, _ uint64) { wh.hw = append(wh.hw, hwTotals.With(id, name)) })
		m.workers = append(m.workers, wh)
	}

	m.appRows = []counterRow[*appMark]{
		{reg.Counter("dataplane_app_offered_total", "packets the traffic source generated", "app"),
			func(d *appMark) uint64 { return d.offered }},
		{reg.Counter("dataplane_app_enqueued_total", "packets accepted into input rings", "app"),
			func(d *appMark) uint64 { return d.enqueued }},
		{reg.Counter("dataplane_app_nic_drops_total", "packets tail-dropped at full input rings", "app"),
			func(d *appMark) uint64 { return d.nicDrops }},
		{reg.Counter("dataplane_app_processed_total", "packets that entered a worker's pipeline", "app"),
			func(d *appMark) uint64 { return d.processed }},
	}
	m.residRows = []gaugeRow[*obs.Residual]{
		{reg.Gauge("dataplane_app_observed_drop", "per-replica observed drop, last control window", "app"),
			func(rr *obs.Residual) float64 { return rr.Observed }},
		{reg.Gauge("dataplane_app_predicted_drop", "mean live-predicted drop, last control window", "app"),
			func(rr *obs.Residual) float64 { return rr.Predicted }},
		{reg.Gauge("dataplane_app_residual", "observed minus predicted drop, last control window", "app"),
			func(rr *obs.Residual) float64 { return rr.Residual }},
	}
	causeV := reg.Gauge("dataplane_app_residual_cause",
		"1 on the residual cause attributed this window, 0 elsewhere", "app", "cause")
	fillV := reg.Gauge("dataplane_handoff_fill",
		"forward hand-off ring occupancy fraction at the barrier", "app", "replica", "cut")
	m.cutRows = []counterRow[*stageMark]{
		{reg.Counter("dataplane_handoff_polls_total",
			"spin-wait iterations on the cut's forward ring (producer + consumer)", "app", "replica", "cut"),
			func(d *stageMark) uint64 { return d.pushPolls + d.popPolls }},
		{reg.Counter("dataplane_handoff_push_polls_total",
			"producer spin-wait iterations on the cut's forward ring (ring full: consumer lags)", "app", "replica", "cut"),
			func(d *stageMark) uint64 { return d.pushPolls }},
		{reg.Counter("dataplane_handoff_pop_polls_total",
			"consumer spin-wait iterations on the cut's forward ring (ring empty: producer starves)", "app", "replica", "cut"),
			func(d *stageMark) uint64 { return d.popPolls }},
	}
	m.elemCRows = []counterRow[elemWindow]{
		{reg.Counter("dataplane_element_cycles_total",
			"exec cycles attributed to the element since measurement start", "element", "app", "stage", "worker"),
			func(e elemWindow) uint64 { return e.cells.Cycles }},
		{reg.Counter("dataplane_element_l3_refs_total",
			"L3 references attributed to the element since measurement start", "element", "app", "stage", "worker"),
			func(e elemWindow) uint64 { return e.cells.L3Refs }},
	}
	m.elemGRows = []gaugeRow[elemWindow]{
		{reg.Gauge("dataplane_element_cycles_per_packet",
			"element cycles per flow packet, last control window", "element", "app", "stage", "worker"),
			func(e elemWindow) float64 { return float64(e.cells.Cycles) / float64(e.pkts) }},
		{reg.Gauge("dataplane_element_refs_per_packet",
			"element L3 references per flow packet, last control window", "element", "app", "stage", "worker"),
			func(e elemWindow) float64 { return float64(e.cells.L3Refs) / float64(e.pkts) }},
	}
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
		ah := appHandles{
			counters: resolveCounters(m.appRows, name), resid: resolveGauges(m.residRows, name),
			drift: driftV.With(name),
			lat:   [3]*obs.Gauge{latV.With(name, "0.5"), latV.With(name, "0.99"), latV.With(name, "0.999")},
		}
		for _, c := range residualCauses {
			ah.cause = append(ah.cause, causeV.With(name, string(c)))
		}
		if a.spec.SLOP99US > 0 {
			ah.burn, ah.breaches = burnV.With(name), tripV.With(name)
		}
		m.apps = append(m.apps, ah)
	}
	for _, f := range r.flows {
		for _, u := range f.stages {
			if u.out != nil {
				app, rep, cut := f.app.spec.Name, fmt.Sprint(f.replica), fmt.Sprint(u.index)
				m.cuts = append(m.cuts, cutHandles{u: u, fill: fillV.With(app, rep, cut), polls: resolveCounters(m.cutRows, app, rep, cut)})
			}
		}
	}

	// Emitter tallies, one series a socket whose group can have one.
	m.emitRows = []counterRow[*groupMark]{
		{reg.Counter("dataplane_socket_emitter_quanta_total", "quanta the socket ran with an emitter walking packets ahead", "socket"),
			func(d *groupMark) uint64 { return d.quanta }},
		{reg.Counter("dataplane_socket_emitter_steals_total", "requested steps the socket goroutine walked itself, the emitter not having claimed them", "socket"),
			func(d *groupMark) uint64 { return d.steals }},
		{reg.Counter("dataplane_socket_emitter_waits_total", "steps the socket goroutine waited for while the emitter walked them", "socket"),
			func(d *groupMark) uint64 { return d.waits }},
	}
	m.emits = make([][]*obs.Counter, len(r.groups))
	for i, g := range r.groups {
		if g.canEmit() {
			m.emits[i] = resolveCounters(m.emitRows, fmt.Sprint(g.socket))
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
	for _, w := range r.workers {
		w.obsm = m
		m.bind(w)
	}
	return m
}

// bind resolves the handles whose labels name the stage w now runs: the
// binding info gauge (the previous binding's drops to 0) and the element
// rows, {element,app,stage,worker} — the worker label follows the flow
// across migrations, so a migrated flow's costs start a new series on its
// new core, as a per-core hardware profiler would see.
func (m *rtObs) bind(w *worker) {
	u := w.unit
	app, stage, worker := u.fl.app.spec.Name, fmt.Sprint(u.index), fmt.Sprint(w.id)
	if w.mBound != nil {
		w.mBound.Set(0)
	}
	w.mBound = m.binding.With(worker, app, stage)
	w.mBound.Set(1)
	w.mElems = make([]elemHandles, len(u.elems))
	for i := range u.elems {
		if i > 0 && u.fl.pipe.Nodes()[i-1].Stage != u.index {
			continue
		}
		name := u.fl.elemName(i)
		w.mElems[i] = elemHandles{resolveCounters(m.elemCRows, name, app, stage, worker), resolveGauges(m.elemGRows, name, app, stage, worker)}
	}
}

// publish writes one control window into the registry, one loop per label
// scope. It runs at the barrier (workers parked) on handles resolved
// earlier; all registry writes are atomics, so a concurrent scrape sees a
// consistent-enough page without stopping the dataplane.
func (m *rtObs) publish(r *Runtime, win *window) {
	for i := range win.sample.Workers {
		t, wh := &win.sample.Workers[i], &m.workers[i]
		addCounters(m.workerCRows, wh.counters, &win.d.workers[i])
		// A stage spins on its out ring when it is full and on its in
		// ring, the previous stage's out ring, when it is empty.
		u := r.workers[i].unit
		sm := win.d.flows[u.fl.id].stages
		spins := sm[u.index].pushPolls
		if u.index > 0 {
			spins += sm[u.index-1].popPolls
		}
		wh.spins.Add(spins)
		setGauges(m.workerRows, wh.gauges, t)
		j := 0
		win.d.workers[i].counters.Each(func(_ string, v uint64) {
			wh.hw[j].Add(v)
			j++
		})
		if t.Throttled {
			m.throttles.Inc()
		}
	}
	for i := range m.apps {
		addCounters(m.appRows, m.apps[i].counters, &win.d.apps[i])
	}
	for i, hs := range m.emits {
		if hs != nil {
			addCounters(m.emitRows, hs, &win.d.groups[i])
		}
	}
	for _, c := range m.cuts {
		c.fill.Set(float64(c.u.out.Len()) / float64(c.u.out.Cap()))
		addCounters(m.cutRows, c.polls, &win.d.flows[c.u.fl.id].stages[c.u.index])
	}
	// Per-element cost deltas, under the binding current at publish time,
	// skipping cells that accrued nothing.
	for _, w := range r.workers {
		fd := &win.d.flows[w.unit.fl.id]
		for i, eh := range w.mElems {
			e := elemWindow{cells: fd.stages[w.unit.index].elems[i], pkts: fd.packets}
			if eh.counters == nil || (e.cells.Cycles == 0 && e.cells.L3Refs == 0) {
				continue
			}
			addCounters(m.elemCRows, eh.counters, e)
			if e.pkts > 0 {
				setGauges(m.elemGRows, eh.gauges, e)
			}
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

// windowDrift scans one app's per-element window costs — summed across
// its replicas and stages by table slot, which replicas share — for the
// element that most exceeds its offline baseline, filling the WindowObs
// drift evidence. It is a no-op unless the app's profile carries element
// baselines (len(prof.Elements) > 0) — hand-built profiles without them
// must not trip drift on every element.
func windowDrift(o *obs.WindowObs, prof FlowProfile, a *appState, d *mark) {
	pkts := d.apps[a.index].processed
	if len(prof.Elements) == 0 || pkts == 0 {
		return
	}
	for i := range a.flows[0].stages[0].elems {
		var cells hw.ElemCost
		for _, f := range a.flows {
			for _, sd := range d.flows[f.id].stages {
				c := sd.elems[i]
				cells.Cycles += c.Cycles
				cells.L3Refs += c.L3Refs
			}
		}
		liveRefs := float64(cells.L3Refs) / float64(pkts)
		if liveRefs < driftMinRefs {
			continue
		}
		name := a.flows[0].elemName(i)
		baseline, known := prof.Elements[name]
		base := max(baseline.RefsPerPacket, driftBaseFloor)
		if ratio := liveRefs / base; ratio >= driftRatio && ratio > o.DriftRefRatio {
			o.DriftElement = name
			o.DriftRefRatio = ratio
			o.DriftLiveRefs = liveRefs
			o.DriftBaseRefs = baseline.RefsPerPacket
			o.DriftLiveCycPP = float64(cells.Cycles) / float64(pkts)
			o.DriftKnown = known
		}
	}
}

// evalLatency publishes each app's window latency quantiles and evaluates
// its latency SLO: the burn rate is the fraction of window packets over
// the target relative to the 1% budget a p99 target implies, and a window
// whose p99 exceeds the target counts one breach. Runs at the barrier
// regardless of whether a registry is configured — breach counts feed the
// report and the sweep gate, not just /metrics.
func (r *Runtime) evalLatency(win *window) {
	for i, a := range r.disp.apps {
		d := &win.d.apps[i].lat
		if d.Count() == 0 {
			continue
		}
		p99, breached := d.Quantile(0.99), false
		if a.spec.SLOP99US > 0 {
			target := uint64(a.spec.SLOP99US * 1e-6 * r.cfg.Cfg.ClockHz)
			a.sloBurn = float64(d.CountOver(target)) / float64(d.Count()) / 0.01
			if breached = p99 > float64(target); breached {
				a.sloBreaches++
			}
		}
		if r.obsm == nil {
			continue
		}
		ah := &r.obsm.apps[i]
		ah.lat[0].Set(d.Quantile(0.50))
		ah.lat[1].Set(p99)
		ah.lat[2].Set(d.Quantile(0.999))
		if ah.burn != nil {
			ah.burn.Set(a.sloBurn)
			if breached {
				ah.breaches.Inc()
			}
		}
	}
}

// residualTolerance is the |observed − predicted| drop within which a
// window's prediction is considered to hold.
const residualTolerance = 0.05

// windowResiduals computes the window's per-app prediction residuals and
// diagnoses each divergence from the same counter evidence the
// predictor reads. Apps without a solo profile (synthetic probes,
// unprofiled customs) produce no residual — there is no prediction to
// diverge from.
func (r *Runtime) windowResiduals(win *window) []obs.Residual {
	if win.sec <= 0 {
		return nil
	}
	var out []obs.Residual
	for i, a := range r.disp.apps {
		// Hidden-trigger aggressors keep their residual series on purpose:
		// the moment the flow's behaviour departs its profiled type, the
		// residual spikes and the diagnoser names the evidence — the
		// Section 4 detection story as live telemetry.
		prof, ok := r.cfg.Profiles[a.spec.Type]
		if !ok || prof.SoloPPS <= 0 || a.spec.Type.Synthetic() {
			continue
		}
		d := &win.d.apps[i]
		observed, ok := a.observedDrop(prof.SoloPPS, d, win.sec)
		if !ok {
			continue
		}

		// Evidence across the app's workers: predicted drop averaged, ring
		// fill worst-case, locality and hit rate packet-weighted, and the
		// competing reference pressure on the app's busiest socket.
		var predSum float64
		var predN int
		var ringFill float64
		var remRefs, pkts, l3Refs, l3Hits uint64
		sockets := map[int]bool{}
		for _, t := range win.sample.Workers {
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
			wd := &win.d.workers[t.Worker].counters
			remRefs += wd.RemoteRefs
			pkts += wd.Packets
			l3Refs += wd.L3Refs
			l3Hits += wd.L3Hits
			sockets[t.Socket] = true
		}
		if predN == 0 {
			continue
		}
		var competing float64
		for sock := range sockets {
			var refs float64
			for _, t := range win.sample.Workers {
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
		// congested cut is at fault.
		for _, f := range a.flows {
			for _, sd := range win.d.flows[f.id].stages {
				o.HandoffPushPolls += sd.pushPolls
				o.HandoffPopPolls += sd.popPolls
			}
		}
		if d.offered > 0 {
			o.NICDropRate = float64(d.nicDrops) / float64(d.offered)
		}
		if pkts > 0 {
			o.RemotePerPacket = float64(remRefs) / float64(pkts)
		}
		if l3Refs > 0 {
			o.HitRate = float64(l3Hits) / float64(l3Refs)
		}
		windowDrift(&o, prof, a, win.d)
		out = append(out, obs.NewResidual(win.sample.Quantum, win.sample.Time, residualTolerance, o))
		if m := r.obsm; m != nil {
			rr, ah := &out[len(out)-1], &m.apps[i]
			ah.drift.Set(o.DriftRefRatio)
			setGauges(m.residRows, ah.resid, rr)
			for k, c := range residualCauses {
				ah.cause[k].Set(0)
				if c == rr.Cause {
					ah.cause[k].Set(1)
				}
			}
		}
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
