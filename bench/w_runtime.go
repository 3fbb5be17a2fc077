package main

import (
	"fmt"
	"io"
	"math"
	gort "runtime"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
)

// rtWorkload is the shape the three runtime_* workloads share: a
// scenario file on a scale, run for a fixed virtual duration per rep.
type rtWorkload struct {
	file      string
	scale     exp.Scale
	duration  float64 // measured virtual seconds per rep
	warmup    float64 // virtual seconds before measuring; 0 starts with empty caches
	profile   bool    // profile the flow types offline and attach the result
	telemetry bool    // metrics registry and 1-in-64 packet tracing on
	engineRef bool    // unprofiled: judge accuracy against the engine's co-run
	builds    int     // NewRuntime calls sampled per rep (the first one runs)
}

func runRuntimeContended(e *env) (*result, error) {
	w := rtWorkload{file: "mixed.click", scale: e.quick(), duration: 0.04, profile: true, builds: 5}
	w.warmup = w.scale.Warmup
	if e.smoke {
		w.duration, w.builds = smokeDuration, 1
	}
	return runRuntime(e, w)
}

func runRuntimeChains(e *env) (*result, error) {
	w := rtWorkload{file: "chains.click", scale: e.quick(), duration: 0.1, profile: true, telemetry: true, builds: 5}
	w.warmup = w.scale.Warmup
	if e.smoke {
		w.duration, w.builds = 2*smokeDuration, 1
	}
	return runRuntime(e, w)
}

func runRuntimeFullscale(e *env) (*result, error) {
	w := rtWorkload{file: "mixed.click", scale: exp.Full(), duration: 0.008, engineRef: true, builds: 1}
	if e.smoke {
		// Paper-scale tables take most of a second to build; the unit
		// test checks the code path on the quick platform instead.
		w.scale, w.duration = e.quick(), smokeDuration
	}
	return runRuntime(e, w)
}

// smokeDuration is the virtual run length of the unit test's size: a
// handful of quanta, one control window.
const smokeDuration = 0.0005

// rtRep is what one NewRuntime + Run measured.
type rtRep struct {
	build, run time.Duration
	cpu        time.Duration // process CPU over Run
	heapMB     float64       // live heap holding the built runtime
	allocMB    float64       // allocated by build plus run
	mallocs    uint64        // heap objects allocated during Run
	gcPause    time.Duration // stop-the-world pause of the rep, its two forced collections included
	rep        *runtime.Report

	snapshotMS   float64 // telemetry reps only
	traceEvents  float64
	traceDropped float64
}

// runtimeRep builds and runs cfg once. A forced GC before the build
// starts every rep from the same heap; a second one after it reads the
// live heap and keeps the build's garbage out of the run.
func (e *env) runtimeRep(cfg runtime.Config, duration float64, telemetry bool) (rtRep, error) {
	var out rtRep
	if telemetry {
		cfg.Metrics = obs.NewRegistry()
		cfg.TraceSample = 64
	}
	before := memStats()
	gort.GC()
	m0 := memStats()
	t := e.tr.begin("runtime.NewRuntime")
	rt, err := runtime.NewRuntime(cfg)
	out.build = t.end()
	if err != nil {
		return out, err
	}
	gort.GC()
	m1 := memStats()
	out.heapMB = float64(m1.HeapAlloc-e.cal.heapBytes()) / mib

	cpu0 := cpuTime()
	t = e.tr.begin("runtime.Run")
	out.rep, err = rt.Run(duration)
	out.run = t.end()
	out.cpu = cpuTime() - cpu0
	if err != nil {
		return out, err
	}
	m2 := memStats()
	out.allocMB = float64(m2.TotalAlloc-m0.TotalAlloc) / mib
	out.mallocs = m2.Mallocs - m1.Mallocs
	out.gcPause = time.Duration(m2.PauseTotalNs - before.PauseTotalNs)

	if telemetry {
		t = e.tr.begin("obs.Snapshot")
		err = cfg.Metrics.Snapshot().WritePrometheus(io.Discard)
		out.snapshotMS = t.end().Seconds() * 1e3
		if err != nil {
			return out, err
		}
		if tr := rt.Tracer(); tr != nil {
			out.traceEvents = float64(len(tr.Events()))
			out.traceDropped = float64(tr.Dropped())
		}
	}
	return out, nil
}

// predictionAccuracy is 100 minus the worst profiled app's |observed -
// predicted| drop, in points.
func predictionAccuracy(rep *runtime.Report) float64 {
	worst := 0.0
	for _, a := range rep.Apps {
		if a.Type.Synthetic() || a.SoloPPS == 0 {
			continue
		}
		worst = math.Max(worst, math.Abs(a.PredictionError()))
	}
	return 100 - worst*100
}

// flowMix expands a configuration into one flow type per replica, in
// worker order: the multiset the engine co-runs and the isolations build.
func flowMix(cfg runtime.Config) []apps.FlowType {
	var mix []apps.FlowType
	for _, a := range cfg.Apps {
		for i := 0; i < a.Workers; i++ {
			mix = append(mix, a.Type)
		}
	}
	return mix
}

// engineReference measures the mix co-running on the deterministic
// engine and returns each type's mean per-flow throughput: the oracle an
// unprofiled runtime run is judged against.
func engineReference(cfg runtime.Config, warmup, window float64) (map[apps.FlowType]float64, error) {
	p := core.NewPredictor(cfg.Cfg, cfg.Params, warmup, window)
	stats, order, err := p.MeasureMix(flowMix(cfg))
	if err != nil {
		return nil, err
	}
	pps, n := map[apps.FlowType]float64{}, map[apps.FlowType]float64{}
	for i, s := range stats {
		pps[order[i]] += s.Throughput()
		n[order[i]]++
	}
	for t := range pps {
		pps[t] /= n[t]
	}
	return pps, nil
}

// engineAgreement is 100 minus the worst app's relative per-worker
// throughput gap between the runtime and the engine reference, in points.
func engineAgreement(rep *runtime.Report, ref map[apps.FlowType]float64) float64 {
	worst := 0.0
	for _, a := range rep.Apps {
		if want := ref[a.Type]; want > 0 {
			worst = math.Max(worst, math.Abs(a.PerWorkerPPS-want)/want)
		}
	}
	return 100 - worst*100
}

func runRuntime(e *env, w rtWorkload) (*result, error) {
	r := newResult()
	setup := e.beginSetup()

	text, err := e.template(r, w.file)
	if err != nil {
		return nil, err
	}
	t := e.tr.begin("scenario.Load")
	cfg, err := loadScenario(text, w.scale)
	t.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.file, err)
	}
	cfg.Warmup = w.warmup

	if w.profile {
		t = e.tr.begin("runtime.ProfileFlows")
		cfg.Profiles, err = runtime.ProfileFlows(cfg.Cfg, cfg.Params, w.scale.Warmup, w.scale.Window,
			w.scale.SweepGrid, cfg.FlowTypes())
		t.end()
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	var ref map[apps.FlowType]float64
	if w.engineRef {
		t = e.tr.begin("core.MeasureMix")
		ref, err = engineReference(cfg, w.warmup, w.duration)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("engine reference: %w", err)
		}
	}
	if _, err := e.runtimeRep(cfg, w.duration, w.telemetry); err != nil {
		return nil, fmt.Errorf("warm-up rep: %w", err)
	}
	e.endSetup(r, setup)

	var kept []rtRep // traced pass: the reps the runtime-layer rows are read from
	err = e.measure(r, func(i int) (float64, error) {
		rr, err := e.runtimeRep(cfg, w.duration, w.telemetry)
		if err != nil {
			for range cfg.Apps {
				r.op(false, "rep %d: %v", i, err)
			}
			return 0, nil
		}
		for _, a := range rr.rep.Apps {
			cerr := a.CheckConservation()
			r.op(cerr == nil && a.Processed > 0, "rep %d app %s: processed %d, conservation: %v", i, a.Name, a.Processed, cerr)
		}
		pkts := float64(rr.rep.TotalProcessed())
		r.add("build_s", rr.build.Seconds())
		r.add("host_ns_per_pkt", float64(rr.run.Nanoseconds())/pkts)
		r.add("alloc_mb", rr.allocMB)
		r.add("heap_mb", rr.heapMB)
		r.add("virt_mpps", pkts/rr.rep.Duration/1e6)
		if w.engineRef {
			r.add("pred_acc_pct", engineAgreement(rr.rep, ref))
		} else {
			r.add("pred_acc_pct", predictionAccuracy(rr.rep))
		}
		// A quick-scale build takes milliseconds, too brief for a handful
		// of reps to pin its median: sample more of them, outside rep_s.
		for b := 1; b < w.builds; b++ {
			gort.GC()
			t := e.tr.begin("runtime.NewRuntime")
			_, err := runtime.NewRuntime(cfg)
			d := t.end()
			if err != nil {
				return 0, err
			}
			r.add("build_s", d.Seconds())
		}
		if e.tr != nil {
			kept = append(kept, rr)
		}
		return (rr.build + rr.run).Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	if !e.traced {
		return r, nil
	}

	p := probe{scale: w.scale, profScale: w.scale, cfg: cfg, text: text, duration: w.duration / 4, rt: kept}
	if e.smoke {
		p.duration = w.duration
	}
	if w.engineRef {
		// Profiling paper-scale tables takes minutes; the profiling and
		// sweep layers are isolated on the quick platform instead.
		p.profScale = e.quick()
	}
	return r, isolate(e, r, p)
}
