// Package runtime is the concurrent multi-core dataplane: it executes
// Click pipelines on simulated cores, one replaying goroutine per socket
// (plus, on a spare host CPU, an emitter that walks its one-stage
// workers' next packets ahead; emit.go), fed through
// bounded SPSC rings by an RSS-sharding dispatcher, with live per-core
// telemetry driving the paper's two online mechanisms — admission
// control (containing flows that exceed their profiled memory-reference
// rate) and contention-aware re-placement of flows across sockets.
//
// There is one notion of flow: a chain of one or more stages, each bound
// to its own worker (stage.go). A graph cut across cores has a stage per
// cut, joined by handoff rings; an unstaged graph — Section 2.2's
// "parallel" approach — is the zero-cut case, a chain of one stage with
// no hand-off; a synthetic source is one stage that emits its packets'
// traces directly. The worker loop, telemetry, reports and re-placement
// see only stages.
//
// Where the hw.Engine interleaves flows in exact global virtual-time
// order on one OS thread, the runtime synchronises core clocks only at
// quantum boundaries (lax conservative synchronisation, as parallel
// architecture simulators use). Both replay ops through the same
// interpreter in package hw, where shared cache state is serialised per
// socket (hw.Core.ExecOps), so contention stays emergent. One barrier,
// driven by Run, releases the sockets for each quantum in the rotated
// order (q+k)%n; dispatch, telemetry, throttling and migration happen
// between releases, and a window leaves through Config.OnWindow and the
// metrics registry.
//
// The barrier has two drivers and one stepping rule: each socket's
// workers run on one goroutine, which steps the one with the smallest core
// clock a packet at a time, as the engine does, so a socket's caches are
// never contended; an emitter only moves where a step's walk runs, never
// which step runs when. Production runs the sockets side by side; the in-line
// driver, which only tests switch on, runs them one after another on the
// caller, so its runs repeat. A production run whose sockets share nothing
// within a quantum gives the in-line run's bytes; one whose chain crosses
// sockets shares that hand-off ring live, and its drop figures vary from
// run to run.
package runtime

import (
	"fmt"
	"math"
	"sort"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/core"
	"pktpredict/internal/elements"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/obs"
	"pktpredict/internal/trafficgen"
)

// FlowProfile is what offline profiling knows about a flow type: its solo
// throughput and memory-reference rate (Table 1) and its
// drop-versus-competition curve (the paper's step 2). The runtime uses
// the reference rate as the admission limit, the curve for live drop
// prediction, and the solo throughput as the drop baseline.
type FlowProfile struct {
	SoloPPS        float64
	SoloRefsPerSec float64
	Curve          core.Curve

	// Elements holds the flow type's offline per-element baseline costs,
	// keyed by pipeline node name (plus the "overhead" slot), measured by
	// a solo runtime run (ProfileFlows). The control loop compares live
	// per-element costs against these every window; an element whose live
	// refs/pkt leaves the baseline is diagnosed as profile drift. Empty
	// or nil disables drift detection for the type.
	Elements map[string]ElemBaseline
}

// ElemBaseline is one element's offline per-packet cost: the reference
// the online drift detector compares live windows against.
type ElemBaseline struct {
	CyclesPerPacket float64
	RefsPerPacket   float64
}

// AppSpec declares one flow group: a flow type served by Workers
// replicas, with its offered traffic.
type AppSpec struct {
	Name    string
	Type    apps.FlowType
	Workers int

	// Rate is the offered load in packets per virtual second, sharded
	// across the group's replicas by RSS flow hash. Zero means saturate:
	// the dispatcher keeps every replica's ring topped up.
	Rate float64
	// RateFraction expresses Rate as a multiple of the group's aggregate
	// solo throughput (Workers × solo pps); it requires a profile and
	// overrides Rate.
	RateFraction float64

	// BurstOn/BurstOff, when both positive, gate the source on for
	// BurstOn quanta then off for BurstOff quanta (bursty traffic).
	BurstOn, BurstOff int

	// Control inserts a control element so admission control can slow
	// the flow down. HiddenTrigger, when positive, builds the Section 4
	// adversarial flow instead: FW behaviour until that many packets,
	// then SYN_MAX-like accesses (it implies a control element).
	Control       bool
	HiddenTrigger uint64

	// SynCompute sets a SYN flow's compute cycles between accesses.
	SynCompute int
	// PacketSize overrides the type's default packet size.
	PacketSize int

	// SLOP99US, when positive, declares the app's end-to-end latency SLO:
	// the p99 of ring-enqueue to walk-termination latency must stay under
	// this many virtual microseconds. The control loop evaluates it every
	// window (burn-rate gauge, breach counter); sweep runs fail a point
	// whose app ends with breaches.
	SLOP99US float64
}

// Config assembles a runtime.
type Config struct {
	Cfg    hw.Config
	Params apps.Params
	Apps   []AppSpec

	// Cores lists the simulated core each worker is pinned to, in worker
	// order; its length must equal the sum of app Workers. Empty means
	// cores 0..n−1 (filling socket 0 first).
	Cores []int

	// RingSize is each flow's input-ring capacity in packets (default 512).
	RingSize int
	// QuantumCycles is the clock-synchronisation quantum (default 200000
	// cycles, ~71 µs at 2.8 GHz).
	QuantumCycles uint64
	// ControlEvery is the control-loop period in quanta (default 5).
	ControlEvery int

	// MigrateState, when positive, makes live re-placement move a flow's
	// state along with the flow: a re-placed flow whose live state
	// footprint is at most MigrateState bytes has its tables copied into
	// the destination socket's memory — charged line-by-line through the
	// simulated hierarchy as remote reads plus local writes on the
	// destination core (surfaced in Counters.RemoteRefs/QPIQueueCycles
	// and Migration.StateCopyCycles) — after which its accesses resolve
	// to the new local domain. Flows above the threshold migrate without
	// their state and keep paying QPI on every reference, the trade an
	// operator prices with the copy-cost crossover (see README). Zero
	// disables state migration entirely.
	MigrateState uint64
	// Warmup is virtual seconds excluded from measurement (default 0).
	Warmup float64

	// Profiles supplies offline profiling results per flow type.
	Profiles map[apps.FlowType]FlowProfile

	// Admission enables the containment loop for flows carrying a
	// control element.
	Admission bool

	// DropThreshold enables live re-placement: when any flow's predicted
	// drop exceeds it, the control loop searches for a cross-socket swap
	// (requires curves in Profiles). Zero disables.
	DropThreshold float64

	// Scenario names the run in reports.
	Scenario string

	// Metrics, when non-nil, is the registry the runtime publishes every
	// control window into, at the barrier. An HTTP endpoint scraping the
	// registry (obs.Serve) can read concurrently with the run.
	Metrics *obs.Registry
	// TraceSample, when positive, samples one in N packets entering each
	// staged chain for per-stage exec-span tracing (Runtime.Tracer).
	TraceSample int
	// OnWindow, when non-nil, is called at every control barrier with the
	// window's sample and residuals: with Metrics, the only way a window
	// leaves the runtime (the Report keeps none), and the caller's to keep.
	// Workers are parked while it runs; keep it brief.
	OnWindow func(ControlSample, []obs.Residual)
}

// DefaultMaxQueueWait bounds any single request's queueing delay at the
// memory controllers and QPI links, in cycles, modelling their finite
// queues. A bound is required under lax clock synchronisation — workers
// replay their quanta in arbitrary host order, and unbounded FCFS would
// tax a late replayer with its neighbours' entire quantum; see
// hw.Channel.MaxWait. The value is tuned against the deterministic
// engine's observed memory-controller queue waits under a
// socket-saturating realistic mix. The engine's p99 wait there is ≈ 63
// cycles, its mean ≈ 8; under lax synchronisation the bound is hit far
// more often than a true FCFS queue's tail (a late replayer sees the
// channel horizon its neighbours' whole quantum ahead), so within the
// admissible band the smallest value tracks the engine's throughput
// best: 32 is the low edge of [p99/2, 2·p99], and
// TestMaxQueueWaitTracksEngine fails if it ever leaves that band.
const DefaultMaxQueueWait = 32

func (c Config) withDefaults() Config {
	if c.RingSize == 0 {
		c.RingSize = 512
	}
	if c.QuantumCycles == 0 {
		c.QuantumCycles = 200_000
	}
	if c.ControlEvery == 0 {
		c.ControlEvery = 5
	}
	return c
}

// burst is a worker's maximum packets per ring poll: the modelled receive
// batch (the scenario's BATCH), or 32 when the scenario models none.
func (c Config) burst() int {
	if c.Params.RxBatch >= 1 {
		return c.Params.RxBatch
	}
	return 32
}

// Runtime is a built dataplane, ready to run once.
type Runtime struct {
	cfg        Config
	platform   *hw.Platform
	workers    []*worker
	flows      []*flow
	disp       *dispatcher
	curves     map[apps.FlowType]core.Curve
	quantumSec float64

	migrations     []Migration
	pendingPost    []pendingPost
	throttleEvents int
	finished       bool
	inline         bool // the barrier's in-line driver; only tests set it
	groups         []*group

	// Test hooks (export_test.go): grant every group that can have an
	// emitter one each quantum whatever the budget, run emitDelay before
	// each claim, and call atBarrier after every quantum.
	forceEmit bool
	emitDelay func()
	atBarrier func()

	// The control window (see window.go): base marks the end of warm-up,
	// prev the last control barrier; cur and win are the storage the next
	// barrier's mark and window are computed into.
	base, prev, cur *mark
	win             window

	// Observability state (see obs.go): registered metric handles and the
	// packet tracer.
	obsm   *rtObs
	tracer *obs.Tracer
}

// pendingPost marks one side of a recorded migration whose post-copy
// remote-reference rate is still unmeasured; the next control window on
// the flow's new worker fills it in.
type pendingPost struct {
	mig    int // index into migrations
	side   int // 0 = flow A, 1 = flow B
	worker int // the flow's new worker
}

// NewRuntime validates cfg and builds the platform, workers, flow
// instances, and dispatcher. Nothing executes until Run.
func NewRuntime(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("runtime: no apps configured")
	}
	if cfg.RingSize < 0 {
		return nil, fmt.Errorf("runtime: RingSize %d is negative", cfg.RingSize)
	}
	total := 0
	maxPkt := 0
	named := map[string]int{}
	for i, a := range cfg.Apps {
		if a.Workers <= 0 {
			return nil, fmt.Errorf("runtime: app %q needs at least one worker", a.Name)
		}
		if a.Name == "" {
			return nil, fmt.Errorf("runtime: app %d has no name", i)
		}
		// Reports, residuals and metric series are keyed by app name.
		if j, ok := named[a.Name]; ok {
			return nil, fmt.Errorf("runtime: apps %d and %d are both named %q", j, i, a.Name)
		}
		named[a.Name] = i
		// A replica of a staged flow type occupies one worker per stage.
		total += a.Workers * cfg.Params.Stages(a.Type)
		if s := cfg.appPacketSize(a); s > maxPkt {
			maxPkt = s
		}
	}
	cores := cfg.Cores
	if len(cores) == 0 {
		cores = make([]int, total)
		for i := range cores {
			cores[i] = i
		}
	}
	if len(cores) != total {
		return nil, fmt.Errorf("runtime: %d cores listed for %d workers", len(cores), total)
	}
	seen := map[int]bool{}
	for _, c := range cores {
		if c < 0 || c >= cfg.Cfg.TotalCores() {
			return nil, fmt.Errorf("runtime: core %d outside the %d-core platform", c, cfg.Cfg.TotalCores())
		}
		if seen[c] {
			return nil, fmt.Errorf("runtime: core %d assigned twice", c)
		}
		seen[c] = true
	}

	r := &Runtime{
		cfg:        cfg,
		platform:   hw.NewPlatform(cfg.Cfg),
		curves:     map[apps.FlowType]core.Curve{},
		quantumSec: cfg.Cfg.CyclesToSeconds(cfg.QuantumCycles),
	}
	r.platform.BoundChannelWaits(DefaultMaxQueueWait)
	for t, p := range cfg.Profiles {
		if len(p.Curve.Points) > 0 {
			r.curves[t] = p.Curve
		}
	}

	arenas := map[int]*mem.Arena{}
	arena := func(d int) *mem.Arena {
		if a, ok := arenas[d]; ok {
			return a
		}
		a := mem.NewArena(d)
		arenas[d] = a
		return a
	}

	// Workers: one per listed core, each receiving through its own
	// FromDevice in its socket's memory: Params.Buffers buffers of the
	// largest packet, then the RX ring (see worker.bind).
	for i, coreID := range cores {
		sock := coreID / cfg.Cfg.CoresPerSocket
		src, err := elements.NewFromDevice(&click.Env{Arena: arena(sock), RxBatch: cfg.Params.RxBatch}, elements.FromDeviceConfig{
			Traffic: trafficgen.Spec{Size: max(maxPkt, trafficgen.MinPacketSize)}, Buffers: cfg.Params.Buffers})
		if err != nil {
			return nil, err
		}
		r.workers = append(r.workers, &worker{id: i, core: r.platform.Cores[coreID], socket: sock, src: src, batch: cfg.burst()})
	}

	// Flow instances: replica k of an app starts on the next unbound
	// worker; each stage's state is allocated from a private NUMA domain
	// homed to that stage's worker's socket. Private domains (ids beyond
	// the socket count, homing via modulo — see hw.Platform.HomeSocket)
	// are what make state a placeable resource: a migration can re-home
	// one flow's tables without touching anything else in the domain.
	statePriv := 0
	stateArena := func(socket int) *mem.Arena {
		statePriv++
		a := mem.NewArena(cfg.Cfg.Sockets*statePriv + socket)
		// Page colouring: every fresh domain starts at the same low
		// address bits, so without an offset all flows' tables would
		// collide in the same cache sets — contention the shared-arena
		// layout (and any sane allocator) doesn't have. Staggering each
		// private arena by an odd page stride spreads the state across
		// the L3's sets like a sequentially filled shared arena does.
		a.Reserve(uint64(statePriv)*101*4096, 4096)
		return a
	}
	// Three steps. Flow slots and stage arenas first, in declaration order:
	// flow ids, the private-domain numbering and the page colour depend on
	// it. Then the replicas, each allocating only from its own arenas, side
	// by side. Last the stages and hand-off rings, in declaration order
	// again: the per-socket arenas and the worker bindings depend on it.
	var states []*appState
	var arenasOf [][]*mem.Arena // by flow id: one arena per stage
	widx := 0
	for ai := range cfg.Apps {
		spec := cfg.Apps[ai]
		pktSize := cfg.appPacketSize(spec)
		st := &appState{
			spec:    spec,
			index:   ai,
			pktSize: pktSize,
			scratch: make([]byte, pktSize),
		}
		if rate, err := cfg.resolveRate(spec); err != nil {
			return nil, err
		} else {
			st.rate = rate
		}
		stages := cfg.Params.Stages(spec.Type)
		for k := 0; k < spec.Workers; k++ {
			stageArenas := make([]*mem.Arena, stages)
			for s := range stageArenas {
				stageArenas[s] = stateArena(r.workers[widx+s].socket)
			}
			f := &flow{id: len(r.flows), app: st, replica: k}
			st.flows = append(st.flows, f)
			r.flows = append(r.flows, f)
			arenasOf = append(arenasOf, stageArenas)
			widx += stages
		}
		states = append(states, st)
	}
	raws := make([]hw.PacketSource, len(r.flows))
	if err := core.FanOut(len(r.flows), func(i int) (err error) {
		raws[i], err = r.buildFlow(r.flows[i], arenasOf[i])
		return err
	}); err != nil {
		return nil, err
	}
	widx = 0
	for _, st := range states {
		spec, pktSize, ai := st.spec, st.pktSize, st.index
		for _, f := range st.flows {
			// One replica spans the next `stages` workers, stage order
			// matching worker order.
			stages := len(arenasOf[f.id])
			if err := r.buildStages(f, raws[f.id], widx, stages, arena); err != nil {
				return nil, err
			}
			widx += stages
		}
		if !spec.Type.Synthetic() {
			// The graph's own source generated the traffic offline
			// profiling measured, so the ring-fed runtime generates from a
			// copy of its spec: the payload shaping (signature injection,
			// entropy distribution) carries over, and a packet-size
			// disagreement is a configuration error — the profile and the
			// runtime would silently measure different workloads. The flow
			// population scales with the replica count so that RSS
			// sharding delivers each replica roughly TrafficFlows distinct
			// flows, the workload the solo profile was measured under.
			// (With a fixed population, sharding would shrink each core's
			// working set and every replica would beat its solo baseline.)
			genSpec := trafficgen.Spec{Size: pktSize}
			if src := st.flows[0].traffic; src != nil {
				if src.Size != pktSize {
					return nil, fmt.Errorf("runtime: app %q: graph source generates %d-byte packets but the flow's packet size is %d (set PACKET_SIZE to match the source's SIZE)",
						spec.Name, src.Size, pktSize)
				}
				genSpec = *src
			}
			genSpec.Seed = core.SeedFor(spec.Type, 1000+ai)
			genSpec.Flows = cfg.Params.TrafficFlows * spec.Workers
			st.gen = trafficgen.New(genSpec)
		}
	}
	r.groups = groupWorkers(r.workers)
	r.disp = &dispatcher{apps: states, quantumSec: r.quantumSec, quantumCycles: cfg.QuantumCycles}
	r.base, r.prev, r.cur, r.win.d = newMark(r), newMark(r), newMark(r), newMark(r)
	r.buildTracer()
	if cfg.Metrics != nil {
		r.obsm = newRtObs(cfg.Metrics, r)
	}
	return r, nil
}

// appPacketSize resolves an app's packet size from its spec or the
// workload parameters (which cover custom flow types too).
func (c Config) appPacketSize(a AppSpec) int {
	if a.PacketSize > 0 {
		return a.PacketSize
	}
	return c.Params.PacketSize(a.Type)
}

// FlowTypes returns the distinct flow types the configuration runs,
// sorted — the list offline profiling needs.
func (c Config) FlowTypes() []apps.FlowType {
	set := map[apps.FlowType]bool{}
	for _, a := range c.Apps {
		set[a.Type] = true
	}
	out := make([]apps.FlowType, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c Config) resolveRate(a AppSpec) (float64, error) {
	if a.RateFraction <= 0 {
		return a.Rate, nil
	}
	p, ok := c.Profiles[a.Type]
	if !ok || p.SoloPPS <= 0 {
		return 0, fmt.Errorf("runtime: app %q sets RateFraction but no %s solo profile is available", a.Name, a.Type)
	}
	return a.RateFraction * p.SoloPPS * float64(a.Workers), nil
}

// buildFlow constructs replica f with stage s's state allocated from
// arenas[s] (one private arena per stage, homed to the stage's worker's
// socket). It returns, for a synthetic flow, the raw source its single
// stage runs in place of a graph walk. Replicas build concurrently: it
// reads the runtime's configuration and writes only f and its arenas.
func (r *Runtime) buildFlow(f *flow, arenas []*mem.Arena) (hw.PacketSource, error) {
	st, spec := f.app, f.app.spec
	arenaAt := func(s int) *mem.Arena {
		if s < 0 {
			s = 0
		}
		if s >= len(arenas) {
			s = len(arenas) - 1
		}
		return arenas[s]
	}
	inst, err := r.cfg.Params.BuildSpec(apps.Spec{
		Type: spec.Type, Seed: core.SeedFor(spec.Type, st.index*64+f.replica), SynCompute: spec.SynCompute,
		Control: spec.Control, HiddenTrigger: spec.HiddenTrigger,
	}, arenaAt)
	if err != nil {
		return nil, fmt.Errorf("runtime: app %q replica %d: %w", spec.Name, f.replica, err)
	}
	f.pipe, f.control = inst.Pipeline, inst.Control
	f.state, f.stateBytes = inst.StateBindings(-1), inst.StateBytes(-1)
	f.stateHome = r.platform.DomainHome(arenas[0].Domain())
	if f.pipe == nil {
		return inst.Source, nil
	}
	f.ring = NewRing(r.cfg.RingSize, st.pktSize)
	// The flow is fed through its ring and pulled by its stage-0 worker's
	// FromDevice, so let the graph's own source go once its spec is read:
	// never pulled, it built no host buffers, and its simulated extents
	// stay reserved.
	if fd, ok := f.pipe.Source.(*elements.FromDevice); ok {
		spec := fd.Spec()
		f.traffic = &spec
	}
	f.pipe.Source = nil
	// Per-element attribution slots: the graph is structurally final here
	// (control elements and aggressors are inserted by the builders), so
	// each node gets the slot its ops will be charged to in its stage's
	// table. Slot 0 stays the overhead slot (source pull, ring polls,
	// recycling).
	for i, n := range f.pipe.Nodes() {
		n.Elem = uint16(i + 1)
	}
	return nil, nil
}

// Run executes the dataplane for the given measured virtual duration
// (plus the configured warmup) and reports. A duration that is not
// positive and finite, or is longer than 2^31 quanta, is an error.
func (r *Runtime) Run(duration float64) (*Report, error) {
	if quanta := math.Ceil(duration / r.quantumSec); quanta >= 1 && quanta <= 1<<31 {
		return r.run(int(quanta))
	}
	return nil, fmt.Errorf("runtime: duration %g s is not a positive, finite time of at most 2^31 quanta", duration)
}

func (r *Runtime) run(quanta int) (*Report, error) {
	if r.finished {
		return nil, fmt.Errorf("runtime: already ran; build a new Runtime")
	}
	r.finished = true
	b := r.newBarrier()
	defer b.stop()

	warmQ := 0
	if r.cfg.Warmup > 0 {
		warmQ = int(math.Ceil(r.cfg.Warmup / r.quantumSec))
	}
	sinceControl := 0
	measured := 0
	for q := 0; ; q++ {
		if q == warmQ {
			r.resetMeasurement(q)
		}
		r.disp.enqueue(q)
		b.release(q, uint64(q+1)*r.cfg.QuantumCycles)
		if r.atBarrier != nil {
			r.atBarrier()
		}
		if q < warmQ {
			continue
		}
		measured++
		sinceControl++
		if sinceControl == r.cfg.ControlEvery {
			r.controlStep(q)
			sinceControl = 0
		}
		if measured == quanta {
			if sinceControl > 0 {
				r.controlStep(q)
			}
			return r.buildReport(measured), nil
		}
	}
}

// barrier is the quantum barrier of the package doc: release runs each
// socket's workers to limit (runSocket), on a goroutine of their own or,
// in-line (start and done nil), on the caller. The release order rotates
// with the quantum so no socket systematically replays first and sees the
// emptiest channel queues. The goroutine driver also opens, each quantum,
// the emitters of the groups that the CPU budget grants one (emit.go).
type barrier struct {
	groups []*group
	start  []chan int
	done   []chan struct{}
	limit  uint64 // the released quantum's end, set before any start
	force  bool   // grant every emitter whatever the budget (a test hook)
}

func (r *Runtime) newBarrier() *barrier {
	b := &barrier{groups: r.groups, force: r.forceEmit}
	if r.inline {
		return b
	}
	core.AddSockets(len(b.groups))
	for _, g := range b.groups {
		if g.canEmit() {
			g.em = newEmitter(g, r.emitDelay)
		}
		start, done := make(chan int), make(chan struct{})
		b.start, b.done = append(b.start, start), append(b.done, done)
		go func() {
			defer close(done)
			for q := range start {
				runSocket(g, q, b.limit)
				done <- struct{}{}
			}
		}()
	}
	return b
}

func (b *barrier) release(q int, limit uint64) {
	b.limit = limit
	spares := 0
	if b.start != nil {
		spares = grant(b.groups, b.force)
	}
	for k := range b.groups {
		if g := (q + k) % len(b.groups); b.start == nil {
			runSocket(b.groups[g], q, limit)
		} else {
			b.start[g] <- q
		}
	}
	for _, done := range b.done {
		<-done
	}
	if spares > 0 {
		core.ReturnCPUs(spares)
	}
}

func (b *barrier) stop() {
	if b.start == nil {
		return
	}
	for i, start := range b.start {
		close(start)
		<-b.done[i]
	}
	for _, g := range b.groups {
		if g.em != nil {
			g.em.stop()
		}
	}
	core.AddSockets(-len(b.groups))
}

// resetMeasurement starts the measured interval at the end of warmup,
// before quantum q runs: it takes the base mark (and the first window's
// prev). All workers are parked when it runs.
func (r *Runtime) resetMeasurement(q int) {
	r.base.take(r, q-1)
	r.prev.take(r, q-1)
	for _, w := range r.workers {
		w.bindPackets, w.bindClock = w.core.Counters.Packets, w.core.Clock()
	}
	for _, a := range r.disp.apps {
		a.pacedQuanta, a.pacedEmitted = 0, 0
		for _, f := range a.flows {
			// Packets already inside a chain's hand-off rings will reach
			// their terminal inside the window, and packets already sitting
			// in receive rings will be processed inside it: credit the
			// former as entered and the latter as offered and enqueued —
			// on top of the marks just taken — so the window's conservation
			// and drop accounting hold.
			f.packets += f.inFlight()
			if f.ring != nil {
				backlog := uint64(f.ring.Len())
				a.offered += backlog
				a.enqueued += backlog
			}
		}
	}
}

// swap exchanges the flows of two workers: live migration at a barrier.
// When Config.MigrateState admits a flow's footprint, its state moves
// with it (migrateState); otherwise the tables stay behind and the flow
// pays QPI from its new socket.
func (r *Runtime) swap(a, b int, win *window, worstBefore float64) {
	wa, wb := r.workers[a], r.workers[b]
	ua, ub := wa.unit, wb.unit
	fa, fb := ua.fl, ub.fl
	m := Migration{
		Quantum: win.sample.Quantum, WorkerA: a, WorkerB: b,
		FlowA: flowName(fa), FlowB: flowName(fb),
		WorstBefore: worstBefore,
		// Both rate pairs use NaN for "unmeasured", never a phantom 0.00
		// ("fully local"): the before side when the preceding window
		// carried no traffic, the after side until the first post-swap
		// window with traffic measures it.
		RemotePerPktBeforeA: win.remoteRate(a),
		RemotePerPktBeforeB: win.remoteRate(b),
		RemotePerPktAfterA:  math.NaN(),
		RemotePerPktAfterB:  math.NaN(),
	}
	m.CopyA = r.migrateState(fa, wb)
	m.CopyB = r.migrateState(fb, wa)
	m.StateCopyCycles = m.CopyA.Cycles + m.CopyB.Cycles
	if m.StateCopyCycles > 0 {
		// Re-baseline the next control window past the copy: its remote
		// reads are one-off migration traffic, not the steady state the
		// post-copy telemetry is after. cur is the mark that window will
		// subtract. (Whole-run counters keep the copy.)
		for _, w := range [2]*worker{wa, wb} {
			cm := &r.cur.workers[w.id]
			cm.counters, cm.clock = w.core.Counters, w.core.Clock()
		}
	}
	wa.bind(ub)
	wb.bind(ua)
	r.migrations = append(r.migrations, m)
	if r.obsm != nil {
		r.obsm.migrations.Inc()
		r.obsm.copyCycles.Add(m.StateCopyCycles)
	}
	// A measurement still pending on either worker now belongs to a
	// superseded binding: drop it (its migration keeps the NaN sentinel)
	// before scheduling this swap's.
	kept := r.pendingPost[:0]
	for _, pp := range r.pendingPost {
		if pp.worker != a && pp.worker != b {
			kept = append(kept, pp)
		}
	}
	mi := len(r.migrations) - 1
	r.pendingPost = append(kept,
		pendingPost{mig: mi, side: 0, worker: b},
		pendingPost{mig: mi, side: 1, worker: a})
}

// fnMigrate attributes state-copy traffic in per-function profiles.
var fnMigrate = hw.RegisterFunc("state_migration")

// migrateState copies f's state into dst's socket if the configured
// threshold admits it. The copy is charged on the destination core —
// the worker about to run the flow spends its cycles memcpy-ing — as a
// streamed remote read of every state line followed, once the flow's
// private domains are re-homed, by a local write of the same line: the
// read crosses the interconnect (RemoteRefs, QPIQueueCycles), the write
// re-establishes the line under the destination socket's controller.
// After the copy the flow's table references resolve locally again.
//
//dataplane:stamped migration copy ops are control-plane cost attributed to fnMigrate, not to any element slot
func (r *Runtime) migrateState(f *flow, dst *worker) StateCopy {
	if r.cfg.MigrateState == 0 || f.stateBytes == 0 ||
		f.stateBytes > r.cfg.MigrateState || f.stateHome == dst.socket {
		return StateCopy{}
	}
	start := dst.core.Clock()
	var ops []hw.Op
	var domains []int
	lines := 0
	for _, b := range f.state {
		if b.Size == 0 {
			continue
		}
		if n := len(domains); n == 0 || domains[n-1] != b.Domain() {
			domains = append(domains, b.Domain())
		}
		last := hw.LineOf(b.Base + hw.Addr(b.Size) - 1)
		for line := hw.LineOf(b.Base); line <= last; line += hw.LineSize {
			// memcpy order, line by line: the read streams across the
			// interconnect (independent address stream, so OpLoadStream
			// overlaps like any copy loop), the write lands in the line
			// just brought into the destination's cache and drains to the
			// local controller as a write-back once the domain re-homes.
			ops = append(ops,
				hw.Op{Kind: hw.OpLoadStream, Addr: line, Func: fnMigrate},
				hw.Op{Kind: hw.OpStore, Addr: line, Func: fnMigrate})
			lines++
		}
	}
	dst.core.ExecStall(ops)
	for _, d := range domains {
		r.platform.SetDomainHome(d, dst.socket)
	}
	f.stateHome = dst.socket
	return StateCopy{
		Copied: true,
		Bytes:  f.stateBytes,
		Lines:  lines,
		Cycles: dst.core.Clock() - start,
	}
}

func flowName(f *flow) string {
	return fmt.Sprintf("%s/%d", f.app.spec.Name, f.replica)
}

func (r *Runtime) buildReport(measQ int) *Report {
	duration := float64(measQ) * r.quantumSec
	rep := &Report{
		Scenario:       r.cfg.Scenario,
		Duration:       duration,
		Quanta:         measQ,
		Migrations:     r.migrations,
		ThrottleEvents: r.throttleEvents,
	}
	tot := r.total()

	for i, w := range r.workers {
		d := &tot.workers[i]
		// Packets and PPS are attributed to the final binding only: the
		// per-binding baseline snapshot taken at swap time keeps packets a
		// previous flow processed on this core out of the current app's
		// numbers. Counter-derived rates (refs/sec) stay per-core — they
		// are what a hardware counter would report for the whole window.
		bound := w.core.Counters.Packets - w.bindPackets
		boundSec := r.cfg.Cfg.CyclesToSeconds(w.core.Clock() - w.bindClock)
		wr := WorkerReport{
			Worker: i, Core: w.core.ID, Socket: w.socket,
			Packets:         bound,
			TotalPackets:    d.counters.Packets,
			RefsPerSec:      float64(d.counters.L3Refs) / duration,
			RemotePerPacket: d.counters.PerPacket(d.counters.RemoteRefs),
			BatchOccupancy:  occupancy(d.batchSum, d.batchCnt, w.batch),
			ClippedBatches:  d.clipped,
		}
		if boundSec > 0 {
			wr.PPS = float64(bound) / boundSec
		}
		u := w.unit
		wr.App = u.fl.app.spec.Name
		wr.Type = u.fl.app.spec.Type
		wr.Stage = u.index
		wr.Stages = len(u.fl.stages)
		wr.StateBytes, wr.StateSocket = u.fl.stageState(u.index, r.platform)
		if u.fl.control != nil {
			wr.DelayCycles = u.fl.control.Delay()
		}
		rep.Workers = append(rep.Workers, wr)
	}

	for i, a := range r.disp.apps {
		d := &tot.apps[i]
		stages := len(a.flows[0].stages)
		ar := AppReport{
			Name: a.spec.Name, Type: a.spec.Type,
			Workers: len(a.flows) * stages, Stages: stages,
			Offered: d.offered, Enqueued: d.enqueued, NICDrops: d.nicDrops, Processed: d.processed,
		}
		branchIdx := map[string]int{}
		for _, f := range a.flows {
			fd := &tot.flows[f.id]
			ar.InFlight += f.inFlight()
			if f.pipe == nil {
				// Every packet a synthetic flow emits completes.
				ar.Finished += fd.packets
			}
			// Packets enter at stage 0 and reach exactly one terminal across
			// the stages (packets still inside hand-off rings are neither).
			for _, sd := range fd.stages {
				ar.PipeDropped += sd.dropped
				ar.Finished += sd.finished
				ar.CutDropped += sd.cutDropped
			}
			// Per-branch terminal counters, aggregated across replicas by
			// node name (replicas share the graph shape).
			if f.pipe != nil && f.pipe.Branching() {
				for k, bc := range fd.branch {
					name := f.pipe.Nodes()[k].Name
					j, ok := branchIdx[name]
					if !ok {
						j = len(ar.Branches)
						branchIdx[name] = j
						ar.Branches = append(ar.Branches, BranchReport{Node: name})
					}
					ar.Branches[j].Dropped += bc.dropped
					ar.Branches[j].Finished += bc.finished
				}
			}
		}
		ar.ObservedPPS = float64(ar.Processed) / duration
		ar.GoodputPPS = float64(ar.Finished) / duration
		ar.PerWorkerPPS = ar.ObservedPPS / float64(ar.Workers)
		if d.offered > 0 {
			ar.LossRate = float64(d.nicDrops) / float64(d.offered)
		}
		if p, ok := r.cfg.Profiles[a.spec.Type]; ok && p.SoloPPS > 0 {
			ar.SoloPPS = p.SoloPPS
			ar.ObservedDrop, _ = a.observedDrop(p.SoloPPS, d, duration)
		}
		// Per-app prediction average: every control window since
		// measurement start contributes.
		if a.predCnt > 0 {
			ar.PredictedDrop = a.predSum / float64(a.predCnt)
		}
		// Whole-window latency percentiles from the group's merged
		// log-bucket histogram, and the SLO outcome the control loop
		// accumulated window by window.
		if d.lat.Count() > 0 {
			toUS := 1e6 / r.cfg.Cfg.ClockHz
			ar.LatCount = d.lat.Count()
			ar.LatP50US = d.lat.Quantile(0.50) * toUS
			ar.LatP99US = d.lat.Quantile(0.99) * toUS
			ar.LatP999US = d.lat.Quantile(0.999) * toUS
		}
		ar.SLOP99US = a.spec.SLOP99US
		ar.SLOBreaches = a.sloBreaches
		ar.SLOBurnRate = a.sloBurn
		rep.Apps = append(rep.Apps, ar)
	}
	return rep
}
