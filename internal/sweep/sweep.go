// Package sweep executes evaluation grids over the dataplane: platform
// variants × offered-load multipliers × scenario files, each point run
// in its own goroutine-isolated runtime with its flow types profiled
// offline on that point's platform. It reproduces the shape of the
// paper's evaluation (Section 5, Figures 8–9): a table of
// predicted-versus-measured per-app drops across operating points, with
// max/mean prediction error — the "prediction within a few percent"
// claim as a machine-checkable report instead of a single run.
//
// A sweep is declared in a .sweep file (see ParseConfig for the
// grammar and examples/sweeps/ for shipped grids) and produces a Report
// that renders to JSON for machines and markdown for humans. Each
// point's validated apps must keep |observed − expected| drop within the
// scenario's tolerance — the verdict validate_test.go holds the shipped
// paper mixes to at test scale — so a sweep doubles as a
// one-command regression gate for performance work (CI runs the smoke
// grid and fails on any tolerance breach).
package sweep

import (
	"fmt"
	"io"
	"math"
	gort "runtime"
	"sync"
	"time"

	"pktpredict/internal/exp"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
)

// Runner executes one sweep configuration.
type Runner struct {
	Config *Config
	// Scale supplies the base platform, workload parameters, and
	// profiling windows (exp.Quick or exp.Full).
	Scale exp.Scale
	// Overrides, when non-nil, is applied on top of every platform
	// variant (the CLI -platform flag; highest precedence).
	Overrides *scenario.Platform
	// ProfileCache memoises offline profiles per platform × flow type,
	// keyed by their full inputs: every grid point that needs a key
	// shares one profiling run. Given a file (cmd/sweep -profile-cache),
	// warm keys skip re-profiling entirely; nil is a memory-only cache,
	// made by Run.
	ProfileCache *ProfileCache
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer

	mu   sync.Mutex
	done int
}

// Run executes the whole grid and returns the aggregated report. Grid
// points run concurrently (Config.Parallel at a time); an individual
// point's failure is recorded in its PointResult rather than aborting
// the sweep. The profile cache is saved once, after the last point; a
// save failure does not fail the sweep — the profiles are correct either
// way — but it is reported on Progress.
func (r *Runner) Run() (*Report, error) {
	c := r.Config
	if c == nil || c.Points() == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	if r.ProfileCache == nil {
		r.ProfileCache, _ = OpenProfileCache("", "") // no file: cannot fail
	}
	r.done = 0

	parallel := c.Parallel
	if parallel == 0 {
		parallel = gort.GOMAXPROCS(0)
	}
	if parallel > c.Points() {
		parallel = c.Points()
	}

	rep := &Report{
		Name:      c.Name,
		Scale:     r.Scale.Name,
		Duration:  c.Duration,
		Loads:     c.Loads,
		Tolerance: c.Tolerance,
		Points:    make([]PointResult, 0, c.Points()),
	}
	for _, v := range c.Platforms {
		rep.Platforms = append(rep.Platforms, v.Name)
	}
	for _, run := range c.Runs {
		rep.Scenarios = append(rep.Scenarios, run.Name)
	}

	type job struct {
		idx  int
		v    PlatformVariant
		load float64
		run  RunSpec
	}
	var jobs []job
	for _, v := range c.Platforms {
		for _, load := range c.Loads {
			for _, run := range c.Runs {
				jobs = append(jobs, job{idx: len(jobs), v: v, load: load, run: run})
			}
		}
	}
	results := make([]PointResult, len(jobs))

	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[j.idx] = r.runPoint(j.v, j.load, j.run)
			if r.Progress != nil {
				r.mu.Lock()
				r.done++
				pr := &results[j.idx]
				status := "ok"
				switch {
				case pr.Error != "":
					status = "ERROR " + pr.Error
				case !pr.Pass:
					status = fmt.Sprintf("FAIL max|err| %.1f%% > tol %.1f%%", pr.MaxAbsErr*100, pr.Tolerance*100)
					// An SLO miss fails the point on its own; say so rather
					// than blaming a prediction error that may be in band.
					for _, a := range pr.Apps {
						if a.SLOP99US > 0 && !a.SLOPass {
							status = fmt.Sprintf("FAIL %s p99 %.1fµs > SLO %.1fµs", a.Name, a.LatP99US, a.SLOP99US)
							break
						}
					}
				default:
					status = fmt.Sprintf("ok   max|err| %.1f%%", pr.MaxAbsErr*100)
				}
				fmt.Fprintf(r.Progress, "sweep: [%d/%d] %-10s load %.2f %-12s %s (%.1fs host)\n",
					r.done, len(jobs), j.v.Name, j.load, j.run.Name, status, pr.HostSeconds)
				r.mu.Unlock()
			}
		}(j)
	}
	wg.Wait()
	if err := r.ProfileCache.Save(); err != nil && r.Progress != nil {
		fmt.Fprintf(r.Progress, "sweep: warning: %v\n", err)
	}

	rep.Points = results
	rep.aggregate()
	return rep, nil
}

// runPoint executes one grid point: resolve the platform, assemble the
// scenario on it, profile (memoised), scale the offered load, run the
// concurrent runtime, and evaluate prediction error per app.
func (r *Runner) runPoint(v PlatformVariant, load float64, run RunSpec) PointResult {
	start := time.Now()
	tol := run.Tolerance
	if tol == 0 {
		tol = r.Config.Tolerance
	}
	pr := PointResult{
		Platform:  v.Name,
		Load:      load,
		Scenario:  run.Name,
		Tolerance: tol,
	}
	fail := func(err error) PointResult {
		pr.Error = err.Error()
		pr.HostSeconds = time.Since(start).Seconds()
		return pr
	}

	sc, err := scenario.Load(run.File)
	if err != nil {
		return fail(err)
	}
	// Platform precedence: -scale base < scenario Platform block < sweep
	// variant < CLI overrides.
	hwCfg, err := sc.PlatformConfig(r.Scale.Cfg)
	if err != nil {
		return fail(err)
	}
	if hwCfg, err = v.Platform.Apply(hwCfg); err != nil {
		return fail(fmt.Errorf("platform %s: %w", v.Name, err))
	}
	if hwCfg, err = r.Overrides.Apply(hwCfg); err != nil {
		return fail(fmt.Errorf("overrides: %w", err))
	}
	pr.Sockets = hwCfg.Sockets
	pr.CoresPerSocket = hwCfg.CoresPerSocket
	pr.L3Bytes = hwCfg.L3.SizeBytes

	cfg, err := sc.ConfigOn(hwCfg, r.Scale.Params)
	if err != nil {
		return fail(err)
	}

	profiles, err := r.profiledFlows(hwCfg, cfg)
	if err != nil {
		return fail(fmt.Errorf("profiling: %w", err))
	}
	cfg.Profiles = profiles
	cfg.QuantumCycles = r.Config.Quantum
	cfg.ControlEvery = r.Config.ControlEvery
	cfg.Warmup = r.Config.Warmup
	scaleLoad(&cfg, load)

	rt, err := runtime.NewRuntime(cfg)
	if err != nil {
		return fail(err)
	}
	runRep, err := rt.Run(r.Config.Duration)
	if err != nil {
		return fail(err)
	}
	pr.Migrations = len(runRep.Migrations)
	pr.ThrottleEvents = runRep.ThrottleEvents

	if pr.Apps, err = evalRun(cfg.Apps, runRep, tol); err != nil {
		return fail(err)
	}
	pr.finish()
	pr.HostSeconds = time.Since(start).Seconds()
	return pr
}

// scaleLoad applies an offered-load multiplier to every flow group:
// paced flows scale their rate, and saturating flows are paced down to
// the given fraction of their solo rate when the multiplier is below 1
// (at or above 1 a saturating source already offers everything the ring
// accepts, so it stays saturating).
func scaleLoad(cfg *runtime.Config, f float64) {
	if f == 1 {
		return
	}
	for i := range cfg.Apps {
		a := &cfg.Apps[i]
		switch {
		case a.RateFraction > 0:
			a.RateFraction *= f
		case a.Rate > 0:
			a.Rate *= f
		case f < 1:
			a.RateFraction = f
		}
	}
}

// evalRun is the verdict on one finished run — the sweep's gate and
// the engine-versus-runtime validation suite both call it: every app
// must conserve packets, every validated app needs a solo profile, and
// at least one app must be validated. Each app's row carries its own
// pass/fail (evalApp).
func evalRun(specs []runtime.AppSpec, rep *runtime.Report, tol float64) ([]AppResult, error) {
	byName := map[string]runtime.AppSpec{}
	for _, a := range specs {
		byName[a.Name] = a
	}
	var rows []AppResult
	validated := 0
	for _, a := range rep.Apps {
		if err := a.CheckConservation(); err != nil {
			return rows, err
		}
		row, skip := evalApp(byName[a.Name], a, rep, rep.Duration, tol)
		rows = append(rows, row)
		if skip {
			continue
		}
		if a.SoloPPS == 0 {
			return rows, fmt.Errorf("app %s ran without a solo profile", a.Name)
		}
		validated++
	}
	if validated == 0 {
		return rows, fmt.Errorf("run validated no apps (all synthetic or hidden)")
	}
	return rows, nil
}

// evalApp turns one app's report into a sweep row. Synthetic probe flows
// and hidden aggressors are reported but not validated (skip=true): SYN
// exists to generate competition and the hidden flow's drop comes from
// the throttle the scenario exists to trigger.
//
// For validated apps the expected drop depends on the operating point:
//
//   - a saturating flow (credit backpressure keeps its offered load at
//     what it can absorb) is the paper's headline case — expected drop
//     is the live curve prediction and the check is two-sided, since
//     both under- and over-delivery indicate model error;
//   - a paced flow offered fraction f ≥ 1 of solo: the curve still
//     bounds contended capacity, but a gated source (bursty) can beat
//     the saturation equilibrium — its rings absorb bursts and drain in
//     off-phases — so the check is one-sided: observed must not exceed
//     predicted by more than the tolerance;
//   - a paced flow offered f < 1 of solo with predicted contended
//     headroom h = 1 − predicted: when f ≤ h the platform should absorb
//     the offered load outright (expected drop 0), otherwise the flow is
//     over-subscribed at this point and the expected drop relative to
//     its offered load is 1 − h/f. The error is observed − expected and
//     the pass criterion one-sided: an under-capacity flow absorbs
//     contention as higher cycles/packet while still keeping up.
func evalApp(spec runtime.AppSpec, a runtime.AppReport, rep *runtime.Report, duration, tol float64) (AppResult, bool) {
	row := AppResult{AppReport: a, Replicas: a.Workers / a.Stages}
	// Whole-run p99 versus the declared objective decides SLOPass;
	// SLOBreaches additionally records transient per-window excursions.
	row.SLOPass = a.SLOP99US <= 0 || (a.LatCount > 0 && a.LatP99US <= a.SLOP99US)
	// Whole-window remote references per packet, averaged over the
	// group's workers — the locality column of the report.
	var rem float64
	var remN int
	for _, w := range rep.Workers {
		if w.App == a.Name {
			rem += w.RemotePerPacket
			remN++
		}
	}
	if remN > 0 {
		row.RemotePerPacket = rem / float64(remN)
	}

	if a.Type.Synthetic() || spec.HiddenTrigger > 0 {
		return row, true
	}

	frac := spec.RateFraction
	if frac == 0 && spec.Rate > 0 && a.SoloPPS > 0 && duration > 0 {
		offPPS := float64(a.Offered) / duration / float64(row.Replicas)
		frac = offPPS / a.SoloPPS
	}
	row.OfferedFraction = frac
	switch {
	case frac == 0:
		row.ExpectedDrop = a.PredictedDrop
		row.PredErr = a.PredictionError()
		row.Pass = math.Abs(row.PredErr) <= tol
	case frac >= 1:
		row.ExpectedDrop = a.PredictedDrop
		row.PredErr = a.ObservedDrop - row.ExpectedDrop
		row.Pass = row.PredErr <= tol
	default:
		headroom := 1 - a.PredictedDrop
		if frac > headroom {
			row.ExpectedDrop = 1 - headroom/frac
		}
		row.PredErr = a.ObservedDrop - row.ExpectedDrop
		row.Pass = row.PredErr <= tol
	}
	row.Validated = true
	return row, false
}
