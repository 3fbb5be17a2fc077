package main

import (
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"sync"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/core"
	"pktpredict/internal/dpi"
	"pktpredict/internal/exp"
	"pktpredict/internal/handoff"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
	"pktpredict/internal/runtime"
	"pktpredict/internal/sweep"
	"pktpredict/internal/trafficgen"
)

// probe is what a workload hands the layer isolations: its own inputs,
// so every layer is exercised alone on the platform, flow mix and
// scenario the workload ran, and whatever the workload's own spans
// already measured, so nothing is measured twice.
type probe struct {
	scale     exp.Scale      // platform and table sizes of the hw, click, ring and runtime isolations
	profScale exp.Scale      // scale the profiling (core) and sweep isolations run on
	cfg       runtime.Config // the workload's runtime configuration on scale
	text      string         // its scenario text, seed substituted
	duration  float64        // virtual seconds per Run the isolations start themselves

	check *profileCheck // a predictor driven over the workload's types, if it drove one
	rt    []rtRep       // its own traced NewRuntime+Run reps, if it has any
	sweep *sweepStats   // its own cold and warm sweeps, if it is one
}

// Sizes of the micro-isolations: enough operations per round for the
// clock's granularity not to matter, three rounds for a median.
const (
	isoRounds     = 3
	isoCacheOps   = 1 << 17
	isoRingPkts   = 1 << 17
	isoGenPkts    = 1 << 16
	isoTracePkts  = 384 // packets captured per flow for the ExecOps replay
	isoEmitPkts   = 4096
	isoEngineVirt = 0.0005 // virtual seconds of the engine self-time run
)

// scaled shrinks an operation count for the smoke size.
func (e *env) scaled(n int) int {
	if e.smoke {
		return n / 32
	}
	return n
}

// nsPer is a timed loop's cost per operation, in nanoseconds.
func nsPer(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// rounds is how many times each micro-isolation repeats.
func (e *env) rounds() int {
	if e.smoke {
		return 1
	}
	return isoRounds
}

// isolate runs every layer alone and records the per-layer rows.
func isolate(e *env, r *result, p probe) error {
	t := e.tr.begin("isolations")
	defer t.end()

	rows, err := isolateRuntime(e, r, p)
	if err != nil {
		return fmt.Errorf("runtime isolation: %w", err)
	}
	flows, err := buildFlows(e, r, p)
	if err != nil {
		return fmt.Errorf("click isolation: %w", err)
	}
	emitNS, opsPerPkt, err := isolateEmit(e, r, flows, rows.share)
	if err != nil {
		return fmt.Errorf("click isolation: %w", err)
	}
	execNS := isolateExecOps(e, r, p, flows)
	isolateEngine(e, r, p, flows)
	isolateCache(e, r, p)
	isolateAccess(e, r, p)
	isolateRings(e, r, p)
	isolateTrafficgen(e, r)

	// The run accounted for: what one packet costs the click walk alone
	// and the replay alone, and the remainder the runtime itself adds.
	self := rows.cpuPerPkt - emitNS - execNS*opsPerPkt
	r.add("runtime.self_cpu_ns_per_pkt", self)
	r.add("runtime.self_cpu_share", self/rows.cpuPerPkt)

	if err := isolateCore(e, r, p); err != nil {
		return fmt.Errorf("core isolation: %w", err)
	}
	if err := isolateScenario(e, r, p); err != nil {
		return fmt.Errorf("scenario isolation: %w", err)
	}
	if err := isolateSweep(e, r, p); err != nil {
		return fmt.Errorf("sweep isolation: %w", err)
	}

	r.add("bench.trace_overhead_pct", pairedOverheadPct(r.samples[keyRepUntraced], r.samples[keyRepTraced]))
	return nil
}

// pairedOverheadPct is the median, over adjacent pairs, of how much
// longer the second series' sample took than the first's, in percent.
func pairedOverheadPct(base, with []float64) float64 {
	var ratios []float64
	for i := range min(len(base), len(with)) {
		ratios = append(ratios, with[i]/base[i])
	}
	return (median(ratios) - 1) * 100
}

// --- runtime --------------------------------------------------------

// runtimeRows is what the later isolations need from the runtime's.
type runtimeRows struct {
	cpuPerPkt float64                   // process CPU ns per processed packet
	share     map[apps.FlowType]float64 // each type's share of processed packets
}

func isolateRuntime(e *env, r *result, p probe) (runtimeRows, error) {
	// Telemetry's price: interleaved pairs of the same short run with the
	// registry and packet tracing off and on.
	var off, on []rtRep
	for i := 0; i < e.rounds(); i++ {
		for _, telemetry := range []bool{false, true} {
			rr, err := e.runtimeRep(p.cfg, p.duration, telemetry)
			if err != nil {
				return runtimeRows{}, err
			}
			if telemetry {
				on = append(on, rr)
			} else {
				off = append(off, rr)
			}
		}
	}
	nsPerPkt := func(reps []rtRep) []float64 {
		var s []float64
		for _, rr := range reps {
			s = append(s, nsPer(rr.run, int(rr.rep.TotalProcessed())))
		}
		return s
	}
	r.add("runtime.telemetry_overhead_pct", pairedOverheadPct(nsPerPkt(off), nsPerPkt(on)))
	for _, rr := range on {
		r.add("obs.snapshot_ms", rr.snapshotMS)
		r.add("obs.trace_events", rr.traceEvents)
		r.add("obs.trace_dropped", rr.traceDropped)
	}

	reps := p.rt
	if len(reps) == 0 {
		reps = off
	}
	nproc := float64(gort.GOMAXPROCS(0))
	share := map[apps.FlowType]float64{}
	for _, rr := range reps {
		rep := rr.rep
		pkts := float64(rep.TotalProcessed())
		r.add("runtime.build_ms", rr.build.Seconds()*1e3)
		r.add("runtime.run_cpu_ns_per_pkt", nsPer(rr.cpu, int(rep.TotalProcessed())))
		r.add("runtime.cpu_util", rr.cpu.Seconds()/(rr.run.Seconds()*nproc))
		r.add("runtime.quanta_per_host_s", float64(rep.Quanta)/rr.run.Seconds())
		r.add("runtime.allocs_per_pkt", float64(rr.mallocs)/pkts)
		r.add("runtime.gc_pause_ms", rr.gcPause.Seconds()*1e3)

		var occupancy, clipped float64
		for _, w := range rep.Workers {
			occupancy += w.BatchOccupancy
			clipped += float64(w.ClippedBatches)
		}
		r.add("runtime.batch_occupancy", occupancy/float64(len(rep.Workers)))
		r.add("runtime.clipped_batches", clipped)

		var offered, nicDrops, p99, p99SLO float64
		for _, a := range rep.Apps {
			offered += float64(a.Offered)
			nicDrops += float64(a.NICDrops)
			p99 = max(p99, a.LatP99US)
			if a.SLOP99US > 0 {
				p99SLO = max(p99SLO, a.LatP99US)
			}
			share[a.Type] += float64(a.Processed) / pkts / float64(len(reps))
		}
		if p99SLO > 0 {
			p99 = p99SLO // apps under a latency objective are the paced ones
		}
		r.add("runtime.nic_drop_share", nicDrops/offered)
		r.add("runtime.virt_p99_us", p99)
	}
	return runtimeRows{cpuPerPkt: median(r.samples["runtime.run_cpu_ns_per_pkt"]), share: share}, nil
}

// --- click ----------------------------------------------------------

// builtFlow is one flow of the workload's mix built from outside, the
// way offline profiling builds it: the whole graph on one core.
type builtFlow struct {
	typ  apps.FlowType
	inst *apps.Instance
}

func buildFlows(e *env, r *result, p probe) ([]builtFlow, error) {
	var flows []builtFlow
	for i, typ := range flowMix(p.cfg) {
		// One private domain per flow, every one homed on socket 0.
		arena := mem.NewArena(i * p.scale.Cfg.Sockets)
		m0 := memStats()
		t := e.tr.begin("apps.Params.Build")
		inst, err := p.cfg.Params.Build(typ, arena, core.SeedFor(typ, i))
		r.add("click.build_ms", t.end().Seconds()*1e3)
		if err != nil {
			return nil, err
		}
		r.add("click.build_alloc_mb", float64(memStats().TotalAlloc-m0.TotalAlloc)/mib)
		flows = append(flows, builtFlow{typ, inst})
	}
	return flows, nil
}

// isolateEmit times the click walk with nothing replayed: one flow per
// type, weighted by the type's share of the workload's packets.
func isolateEmit(e *env, r *result, flows []builtFlow, share map[apps.FlowType]float64) (emitNS, opsPerPkt float64, err error) {
	n := e.scaled(isoEmitPkts)
	var allocs float64
	seen := map[apps.FlowType]bool{}
	for _, f := range flows {
		if seen[f.typ] {
			continue
		}
		seen[f.typ] = true
		var buf []hw.Op
		for i := 0; i < n/8; i++ { // grow the buffer, populate lazily built state
			buf = f.inst.Source.EmitPacket(buf[:0])
		}
		ops := 0
		m0 := memStats()
		t := e.tr.begin("hw.PacketSource.EmitPacket")
		for i := 0; i < n; i++ {
			buf = f.inst.Source.EmitPacket(buf[:0])
			ops += len(buf)
		}
		d := t.end()
		if ops == 0 {
			return 0, 0, fmt.Errorf("flow type %s emitted no ops", f.typ)
		}
		emitNS += share[f.typ] * nsPer(d, n)
		opsPerPkt += share[f.typ] * float64(ops) / float64(n)
		allocs += share[f.typ] * float64(memStats().Mallocs-m0.Mallocs) / float64(n)
	}
	r.add("click.emit_ns_per_pkt", emitNS)
	r.add("click.ops_per_pkt", opsPerPkt)
	r.add("click.emit_allocs_per_pkt", allocs)
	return emitNS, opsPerPkt, nil
}

// --- hw: op interpreter ---------------------------------------------

// isolateExecOps captures a trace from each of the workload's flows and
// replays it through Core.ExecOps: on one goroutine, then on nproc
// goroutines driving cores of the same socket, which is where the socket
// lock and the host's own caches start to cost.
func isolateExecOps(e *env, r *result, p probe, flows []builtFlow) (soloNS float64) {
	n := e.scaled(isoTracePkts) + 8
	traces := make([][][]hw.Op, len(flows))
	for i, f := range flows {
		for k := 0; k < n; k++ {
			traces[i] = append(traces[i], f.inst.Source.EmitPacket(nil))
		}
	}
	replay := func(workers int) float64 {
		platform := hw.NewPlatform(p.scale.Cfg)
		platform.BoundChannelWaits(runtime.DefaultMaxQueueWait)
		var mu sync.Mutex
		var busy time.Duration
		var ops int
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var myOps int
				start := time.Now()
				for round := 0; round < e.rounds(); round++ {
					for i := w; i < len(traces); i += workers {
						c := platform.Cores[i]
						for _, pkt := range traces[i] {
							c.ExecOps(pkt)
							myOps += len(pkt)
						}
					}
				}
				d := time.Since(start)
				mu.Lock()
				busy += d
				ops += myOps
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		return nsPer(busy, ops)
	}
	t := e.tr.begin("hw.Core.ExecOps")
	soloNS = replay(1)
	t.end()
	t = e.tr.begin("hw.Core.ExecOps.shared")
	sharedNS := replay(min(gort.GOMAXPROCS(0), len(traces)))
	t.end()
	r.add("hw.execops_ns_per_op", soloNS)
	r.add("hw.execops_shared_ns_per_op", sharedNS)
	r.add("hw.lock_wait_share", 1-soloNS/sharedNS)
	return soloNS
}

// countingSource wraps a flow's source so the engine's own time can be
// separated from the click walk it calls into: every EmitPacket is a
// child span of the RunUntil that asked for it.
type countingSource struct {
	src    hw.PacketSource
	tr     *tracer
	emit   time.Duration
	ops    int
	events int
}

func (s *countingSource) EmitPacket(buf []hw.Op) []hw.Op {
	t := s.tr.begin("hw.PacketSource.EmitPacket")
	out := s.src.EmitPacket(buf)
	s.emit += t.end()
	s.ops += len(out) - len(buf)
	s.events++
	return out
}

// isolateEngine runs the deterministic engine over the workload's flows
// and reports its self time per micro-op — scheduling plus interpreting —
// with all flows and with one, and the simulated counters of the co-run.
func isolateEngine(e *env, r *result, p probe, flows []builtFlow) {
	virt := isoEngineVirt
	if e.smoke {
		virt /= 10
	}
	run := func(flows []builtFlow) (selfPerOp float64, eng *hw.Engine) {
		platform := hw.NewPlatform(p.scale.Cfg)
		eng = hw.NewEngine(platform)
		var srcs []*countingSource
		for i, f := range flows {
			s := &countingSource{src: f.inst.Source, tr: e.tr}
			srcs = append(srcs, s)
			eng.Attach(i, fmt.Sprintf("%s/core%d", f.typ, i), s)
		}
		t := e.tr.begin("hw.Engine.RunUntil")
		eng.RunUntil(p.scale.Cfg.SecondsToCycles(virt))
		self := t.end()
		ops := 0
		for _, s := range srcs {
			self -= s.emit
			ops += s.ops
		}
		return nsPer(self, ops), eng
	}
	selfNS, eng := run(flows)
	r.add("hw.engine_self_ns_per_op", selfNS)
	var total hw.Counters
	for _, c := range eng.Snapshot() {
		total.Packets += c.Packets
		total.L3Refs += c.L3Refs
		total.L3Misses += c.L3Misses
		total.MemQueueCycles += c.MemQueueCycles
		total.RemoteRefs += c.RemoteRefs
	}
	r.add("hw.l3_refs_per_pkt", total.PerPacket(total.L3Refs))
	r.add("hw.l3_miss_per_pkt", total.PerPacket(total.L3Misses))
	r.add("hw.memq_cycles_per_pkt", total.PerPacket(total.MemQueueCycles))
	r.add("hw.remote_refs_per_pkt", total.PerPacket(total.RemoteRefs))

	soloNS, _ := run(flows[:1])
	r.add("hw.engine_solo_self_ns_per_op", soloNS)
}

// --- hw: cache model ------------------------------------------------

// isolateCache times the three Cache operations the engine profile is
// made of, on a cache of the workload platform's L3 geometry.
func isolateCache(e *env, r *result, p probe) {
	geom := p.scale.Cfg.L3
	lines := geom.SizeBytes / hw.LineSize
	n := e.scaled(isoCacheOps)
	rnd := rng.New(e.seed)
	addrs := make([]hw.Addr, n)
	for round := 0; round < e.rounds(); round++ {
		c := hw.NewCache("iso", geom, p.scale.Cfg.L3Policy)
		for i := 0; i < lines; i++ {
			c.Insert(hw.Addr(i)*hw.LineSize, false)
		}
		// Lookups over twice the capacity: half hit, half miss, no fills.
		for i := range addrs {
			addrs[i] = hw.Addr(rnd.Intn(2*lines)) * hw.LineSize
		}
		t := e.tr.begin("hw.Cache.Access")
		for _, a := range addrs {
			c.Access(a, false)
		}
		r.add("hw.cache_access_ns", nsPer(t.end(), n))

		// Fresh lines into full sets: every insert evicts.
		next := hw.Addr(2*lines) * hw.LineSize
		t = e.tr.begin("hw.Cache.Insert")
		for i := 0; i < n; i++ {
			c.Insert(next, i&1 == 0)
			next += hw.LineSize
		}
		r.add("hw.cache_insert_ns", nsPer(t.end(), n))

		// The most recent inserts are still present; invalidate them.
		m := min(n, lines)
		t = e.tr.begin("hw.Cache.Invalidate")
		for i := 0; i < m; i++ {
			next -= hw.LineSize
			c.Invalidate(next)
		}
		r.add("hw.cache_invalidate_ns", nsPer(t.end(), m))
	}
}

// isolateAccess times Core.Access along the full lookup path, with
// cyclic streams sized to stay resident in each level in turn: half a
// level's capacity always hits there; anything larger than a level
// always misses it under LRU.
func isolateAccess(e *env, r *result, p probe) {
	cfg := p.scale.Cfg
	var platform *hw.Platform
	for i := 0; i < 5; i++ {
		t := e.tr.begin("hw.NewPlatform")
		platform = hw.NewPlatform(cfg)
		r.add("hw.platform_build_ms", t.end().Seconds()*1e3)
	}
	c := platform.Cores[0]
	arena := mem.NewArena(0)
	n := e.scaled(isoCacheOps)
	levels := []struct {
		metric string
		bytes  int
	}{
		{"hw.access_l1_ns", cfg.L1D.SizeBytes / 2},
		{"hw.access_l2_ns", cfg.L2.SizeBytes / 2},
		{"hw.access_l3_ns", cfg.L3.SizeBytes / 2},
		{"hw.access_mem_ns", cfg.L3.SizeBytes * 4},
	}
	var now uint64
	for _, lv := range levels {
		base := arena.Alloc(uint64(lv.bytes), 0)
		lines := lv.bytes / hw.LineSize
		access := func(count int, at int) int {
			for i := 0; i < count; i++ {
				now += c.Access(now, base+hw.Addr(at)*hw.LineSize, false, hw.FuncOther)
				if at++; at == lines {
					at = 0
				}
			}
			return at
		}
		at := access(lines, 0) // one pass to settle the stream where it belongs
		for round := 0; round < e.rounds(); round++ {
			t := e.tr.begin("hw.Core.Access")
			at = access(n, at)
			r.add(lv.metric, nsPer(t.end(), n))
		}
	}
}

// --- rings ----------------------------------------------------------

func isolateRings(e *env, r *result, p probe) {
	size := p.cfg.Params.PacketSize(flowMix(p.cfg)[0])
	n := e.scaled(isoRingPkts)
	const batch = 32
	pkt := make([]byte, size)
	ps, dsts := make([][]byte, batch), make([][]byte, batch)
	for i := range ps {
		ps[i], dsts[i] = pkt, make([]byte, size)
	}
	lens, stamps := make([]int, batch), make([]uint64, batch)

	ring := runtime.NewRing(512, size)
	arena := mem.NewArena(0)
	hand := handoff.New(arena, 128)
	ctx := &click.Ctx{}
	cp := &click.Packet{Data: pkt, Addr: arena.Alloc(uint64(size), 0)}

	for round := 0; round < e.rounds(); round++ {
		t := e.tr.begin("runtime.Ring.scalar")
		for i := 0; i < n; i++ {
			ring.Push(pkt, uint64(i))
			ring.Pop(dsts[0])
		}
		r.add("runtime.ring_scalar_ns_per_pkt", nsPer(t.end(), n))

		t = e.tr.begin("runtime.Ring.batch32")
		for i := 0; i < n/batch; i++ {
			ring.PushBatch(ps, uint64(i))
			ring.PopBatch(dsts, lens, stamps)
		}
		r.add("runtime.ring_batch32_ns_per_pkt", nsPer(t.end(), n/batch*batch))

		t = e.tr.begin("handoff.Ring.scalar")
		for i := 0; i < n; i++ {
			ctx.Ops = ctx.Ops[:0]
			hand.Push(ctx, cp, 0, false)
			hand.Pop(ctx)
		}
		r.add("handoff.scalar_ns_per_pkt", nsPer(t.end(), n))

		t = e.tr.begin("handoff.Ring.staged32")
		for i := 0; i < n/batch; i++ {
			ctx.Ops = ctx.Ops[:0]
			for k := 0; k < batch; k++ {
				hand.StagePush(ctx, cp, 0, false)
			}
			hand.CommitPush(ctx)
			for k := 0; k < batch; k++ {
				hand.PopStaged(ctx)
			}
			hand.CommitPop(ctx)
		}
		r.add("handoff.staged32_ns_per_pkt", nsPer(t.end(), n/batch*batch))
	}
}

// --- trafficgen -----------------------------------------------------

func isolateTrafficgen(e *env, r *result) {
	n := e.scaled(isoGenPkts)
	buf := make([]byte, 2048)
	specs := []struct {
		metric string
		spec   trafficgen.Spec
	}{
		{"trafficgen.gen64_ns_per_pkt", trafficgen.Spec{Seed: e.seed, Size: 64}},
		{"trafficgen.gen_shaped_ns_per_pkt", trafficgen.Spec{Seed: e.seed, Size: 512, Flows: 4096,
			Signatures: dpi.Signatures(e.sigSeed(), 16), SigHit: 0.06, LowEntropy: 0.5, LowEntropyBits: 2}},
	}
	for _, s := range specs {
		gen := trafficgen.New(s.spec)
		for round := 0; round < e.rounds(); round++ {
			t := e.tr.begin("trafficgen.Generator.Next")
			for i := 0; i < n; i++ {
				gen.Next(buf)
			}
			r.add(s.metric, nsPer(t.end(), n))
		}
	}
}

// --- core -----------------------------------------------------------

// profilingConfig is the workload's scenario assembled on the scale the
// profiling isolations use (the workload's own, except at paper scale).
func profilingConfig(p probe) (runtime.Config, error) {
	if p.profScale.Name == p.scale.Name {
		return p.cfg, nil
	}
	return loadScenario(p.text, p.profScale)
}

func isolateCore(e *env, r *result, p probe) error {
	cfg, err := profilingConfig(p)
	if err != nil {
		return err
	}
	s, types := p.profScale, cfg.FlowTypes()
	check := p.check
	if check == nil {
		if check, err = e.runProfileCheck(s, cfg.Cfg, cfg.Params, types); err != nil {
			return err
		}
	}
	// The fourth part of ProfileFlows, done the way it does it: a solo
	// runtime run per type for the per-element baselines. (Subtracting
	// the other three from a ProfileFlows span taken minutes earlier went
	// negative whenever the machine changed speed in between.)
	var elemS float64
	for _, typ := range types {
		t := e.tr.begin("runtime.ElementBaselines")
		rt, err := runtime.NewRuntime(runtime.Config{Cfg: cfg.Cfg, Params: cfg.Params, Warmup: s.Warmup,
			Apps: []runtime.AppSpec{{Name: "solo", Type: typ, Workers: 1}}})
		if err == nil {
			if _, err = rt.Run(s.Window); err == nil {
				rt.ElementBaselines()
			}
		}
		elemS += t.end().Seconds()
		if err != nil {
			return err
		}
	}
	r.add("core.solo_s", check.soloS)
	r.add("core.sweep_s", check.sweepS)
	r.add("core.curve_ms", check.curveS*1e3)
	r.add("core.elem_baseline_s", elemS)
	r.add("core.sim_pkts", float64(check.simPkts))
	r.add("core.ns_per_sim_pkt", (check.soloS+check.sweepS)*1e9/float64(check.simPkts))

	mix := flowMix(cfg)
	const calls = 64
	for round := 0; round < e.rounds(); round++ {
		t := e.tr.begin("core.Predictor.PredictMix")
		for i := 0; i < calls; i++ {
			if _, _, err := check.pred.PredictMix(mix); err != nil {
				return err
			}
		}
		r.add("core.predict_us", t.end().Seconds()*1e6/calls)
	}
	return nil
}

// --- scenario and sweep ---------------------------------------------

func isolateScenario(e *env, r *result, p probe) error {
	for i := 0; i < 16; i++ {
		t := e.tr.begin("scenario.Load")
		_, err := loadScenario(p.text, p.scale)
		r.add("scenario.load_ms", t.end().Seconds()*1e3)
		if err != nil {
			return err
		}
	}
	return nil
}

// isoSweep is a one-point grid over the workload's own scenario: the
// sweep layer end to end (grid load, cache, point, report) at the
// smallest size that still profiles, caches and validates.
const isoSweep = `sweep :: Sweep(NAME iso, DURATION 0.003, WARMUP 0.0003, QUANTUM 100000, CONTROL_EVERY 4,
               TOLERANCE 0.5, LOADS 1.0, PARALLEL 1);
base  :: Platform();
point :: Run(FILE scenario.click);
`

func isolateSweep(e *env, r *result, p probe) error {
	stats := p.sweep
	if stats == nil {
		dir, err := e.workDir("iso_sweep")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		for name, text := range map[string]string{"iso.sweep": isoSweep, "scenario.click": p.text} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
				return err
			}
		}
		var shrink func(*sweep.Config)
		if e.smoke {
			shrink = func(c *sweep.Config) { c.Duration = smokeDuration }
		}
		stats = &sweepStats{}
		if stats.cold, err = e.sweepOnce(dir, "iso.sweep", p.profScale, shrink); err != nil {
			return err
		}
		for i := 0; i < e.rounds(); i++ {
			warm, err := e.sweepOnce(dir, "iso.sweep", p.profScale, shrink)
			if err != nil {
				return err
			}
			stats.warm = append(stats.warm, warm)
		}
	}
	stats.record(r)
	return nil
}
