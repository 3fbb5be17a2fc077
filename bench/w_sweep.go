package main

import (
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"time"

	"pktpredict/internal/exp"
	"pktpredict/internal/runtime"
	"pktpredict/internal/sweep"
)

// cacheSalt keys the profile cache. cmd/sweep salts with the git
// revision; the benchmark's cache lives for one run, so a constant does.
const cacheSalt = "bench"

// sweepPass is one `cmd/sweep` invocation's worth of work, timed step by
// step: load the grid, open the profile cache, run every point, render
// both reports.
type sweepPass struct {
	load, open, run, render time.Duration
	rep                     *sweep.Report
	hits, misses            int
}

func (p sweepPass) total() time.Duration { return p.load + p.open + p.run + p.render }

// sweepOnce runs the grid file in dir against the profile cache beside
// it. shrink, when non-nil, edits the parsed grid (the smoke size).
func (e *env) sweepOnce(dir, file string, scale exp.Scale, shrink func(*sweep.Config)) (sweepPass, error) {
	var p sweepPass
	t := e.tr.begin("sweep.LoadConfig")
	cfg, err := sweep.LoadConfig(filepath.Join(dir, file))
	p.load = t.end()
	if err != nil {
		return p, err
	}
	if shrink != nil {
		shrink(cfg)
	}
	t = e.tr.begin("sweep.OpenProfileCache")
	cache, err := sweep.OpenProfileCache(filepath.Join(dir, "profile-cache.json"), cacheSalt)
	p.open = t.end()
	if err != nil {
		return p, err
	}
	t = e.tr.begin("sweep.Runner.Run")
	runner := &sweep.Runner{Config: cfg, Scale: scale, ProfileCache: cache}
	p.rep, err = runner.Run()
	p.run = t.end()
	if err != nil {
		return p, err
	}
	p.hits, p.misses = cache.Stats()
	t = e.tr.begin("sweep.Report.Render")
	_, err = p.rep.JSON()
	_ = p.rep.Markdown()
	p.render = t.end()
	return p, err
}

// sweepStats carries a sweep's per-layer rows to the isolation report.
type sweepStats struct {
	cold sweepPass
	warm []sweepPass
}

func (s *sweepStats) record(r *result) {
	r.add("sweep.cold_s", s.cold.total().Seconds())
	r.add("sweep.cache_misses", float64(s.cold.misses))
	for _, p := range s.warm {
		r.add("sweep.warm_s", p.total().Seconds())
		r.add("sweep.cache_hits", float64(p.hits))
		r.add("sweep.cache_io_ms", p.open.Seconds()*1e3)
		r.add("sweep.report_ms", p.render.Seconds()*1e3)
		r.add("sweep.points_failed", float64(p.rep.Failed))
		slowest := 0.0
		for _, pt := range p.rep.Points {
			slowest = max(slowest, pt.HostSeconds)
		}
		r.add("sweep.point_host_s_max", slowest)
	}
}

func runSweepSmoke(e *env) (*result, error) {
	r := newResult()
	scale := e.quick()
	setup := e.beginSetup()

	// The sweep layer reads its grid and scenarios from disk, so the
	// seeded templates are written out next to a private, empty cache.
	dir, err := e.workDir("sweep_smoke")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	texts := map[string]string{}
	for _, name := range []string{"smoke.sweep", "mixed.click", "ids_chain.click"} {
		if texts[name], err = e.template(r, name); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(texts[name]), 0o644); err != nil {
			return nil, err
		}
	}
	var shrink func(*sweep.Config)
	if e.smoke {
		shrink = func(c *sweep.Config) {
			c.Platforms, c.Loads, c.Runs = c.Platforms[:1], []float64{1}, c.Runs[:1]
			c.Duration, c.Tolerance = smokeDuration, 1 // too short a run to hold the grid's tolerance
		}
	}

	// Set-up is the cold sweep: three quarters of it is offline profiling.
	stats := &sweepStats{}
	if stats.cold, err = e.sweepOnce(dir, "smoke.sweep", scale, shrink); err != nil {
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	e.endSetup(r, setup)

	err = e.measure(r, func(i int) (float64, error) {
		gort.GC()
		m0 := memStats()
		p, err := e.sweepOnce(dir, "smoke.sweep", scale, shrink)
		if err != nil {
			return 0, err
		}
		r.add("alloc_mb", float64(memStats().TotalAlloc-m0.TotalAlloc)/mib)
		var pkts, pps float64
		for _, pt := range p.rep.Points {
			r.op(pt.Pass && pt.Error == "", "pass %d point %s/%.2f/%s: pass=%v max|err| %.3f %s",
				i, pt.Platform, pt.Load, pt.Scenario, pt.Pass, pt.MaxAbsErr, pt.Error)
			for _, a := range pt.Apps {
				pkts += float64(a.Processed)
				pps += a.ObservedPPS
			}
		}
		r.add("host_ns_per_pkt", float64(p.total().Nanoseconds())/pkts)
		r.add("virt_mpps", pps/float64(len(p.rep.Points))/1e6)
		r.add("pred_acc_pct", 100-p.rep.MaxAbsErr*100)
		if e.tr != nil {
			stats.warm = append(stats.warm, p)
		}

		// What the grid's points pay to build, seen from outside: each
		// scenario of the grid assembled on the base platform.
		gort.GC()
		var built []*runtime.Runtime
		var buildS float64
		for _, name := range []string{"mixed.click", "ids_chain.click"} {
			cfg, err := loadScenario(texts[name], scale)
			if err != nil {
				return 0, err
			}
			t := e.tr.begin("runtime.NewRuntime")
			rt, err := runtime.NewRuntime(cfg)
			buildS += t.end().Seconds()
			if err != nil {
				return 0, err
			}
			built = append(built, rt)
		}
		r.add("build_s", buildS)
		r.add("heap_mb", e.liveHeapMB())
		gort.KeepAlive(built)
		return p.total().Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	if !e.traced {
		return r, nil
	}

	cfg, err := loadScenario(texts["mixed.click"], scale)
	if err != nil {
		return nil, err
	}
	cfg.Warmup = scale.Warmup
	p := probe{scale: scale, profScale: scale, cfg: cfg, text: texts["mixed.click"], duration: 0.01, sweep: stats}
	if e.smoke {
		p.duration = smokeDuration
	}
	return r, isolate(e, r, p)
}
