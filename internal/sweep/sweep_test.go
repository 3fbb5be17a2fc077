package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/exp"
	"pktpredict/internal/runtime"
)

func TestScaleLoad(t *testing.T) {
	mk := func() runtime.Config {
		return runtime.Config{Apps: []runtime.AppSpec{
			{Name: "sat"},
			{Name: "frac", RateFraction: 0.8},
			{Name: "rate", Rate: 1e6},
		}}
	}
	cfg := mk()
	scaleLoad(&cfg, 0.5)
	if cfg.Apps[0].RateFraction != 0.5 {
		t.Errorf("saturating flow not paced down: %+v", cfg.Apps[0])
	}
	if cfg.Apps[1].RateFraction != 0.4 {
		t.Errorf("fraction flow not scaled: %+v", cfg.Apps[1])
	}
	if cfg.Apps[2].Rate != 0.5e6 {
		t.Errorf("rate flow not scaled: %+v", cfg.Apps[2])
	}

	cfg = mk()
	scaleLoad(&cfg, 1.5)
	if cfg.Apps[0].RateFraction != 0 || cfg.Apps[0].Rate != 0 {
		t.Errorf("saturating flow must stay saturating at load ≥ 1: %+v", cfg.Apps[0])
	}
	if cfg.Apps[1].RateFraction != 1.2000000000000002 && cfg.Apps[1].RateFraction != 1.2 {
		t.Errorf("fraction flow not scaled up: %+v", cfg.Apps[1])
	}

	cfg = mk()
	scaleLoad(&cfg, 1)
	if cfg.Apps[0] != mk().Apps[0] || cfg.Apps[1] != mk().Apps[1] || cfg.Apps[2] != mk().Apps[2] {
		t.Errorf("load 1 must leave rates as written: %+v", cfg.Apps)
	}
}

// TestSweepSmokeGrid executes a real 1-platform × 2-load grid over the
// shipped mixed scenario through the full pipeline — load, platform
// resolution, memoised profiling, concurrent runs, evaluation — and
// checks the report's shape and gate. Skipped under -short like the
// other profiling-backed suites (CI's dedicated sweep step covers it).
func TestSweepSmokeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep execution test skipped in -short mode (runs in the CI sweep step)")
	}
	cfg, err := ParseConfig(`
sweep :: Sweep(NAME t, DURATION 0.004, WARMUP 0.0003, QUANTUM 100000,
               CONTROL_EVERY 4, TOLERANCE 0.18, LOADS 0.7 1.0, PARALLEL 2);
mixed :: Run(FILE ../../examples/scenarios/mixed.click);
`)
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	r := &Runner{Config: cfg, Scale: exp.Quick(), Progress: &progress}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("%d points, want 2", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Error != "" {
			t.Fatalf("point %s/%.2f/%s failed: %s", p.Platform, p.Load, p.Scenario, p.Error)
		}
		validated := 0
		for _, a := range p.Apps {
			if a.Validated {
				validated++
			}
			if a.SoloPPS <= 0 {
				t.Errorf("point %v app %s has no solo baseline", p.Load, a.Name)
			}
		}
		if validated == 0 {
			t.Fatalf("point %v validated no apps", p.Load)
		}
	}
	if !rep.Pass {
		t.Fatalf("smoke grid failed its own gate: max |err| %.1f%%\n%s", rep.MaxAbsErr*100, rep.Markdown())
	}
	if rep.Points[0].Load != 0.7 || rep.Points[1].Load != 1.0 {
		t.Fatalf("points out of declared order: %v, %v", rep.Points[0].Load, rep.Points[1].Load)
	}

	// The paced point's apps must be evaluated as paced (offered < solo),
	// the saturating point's as saturating.
	if a := rep.Points[0].Apps[0]; a.OfferedFraction != 0.7 {
		t.Errorf("load 0.7 app evaluated with fraction %v", a.OfferedFraction)
	}
	if a := rep.Points[1].Apps[0]; a.OfferedFraction != 0 {
		t.Errorf("load 1.0 app evaluated with fraction %v, want saturating", a.OfferedFraction)
	}

	// Renders: JSON must round-trip, markdown must carry the tables.
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if len(back.Points) != len(rep.Points) || back.MaxAbsErr != rep.MaxAbsErr {
		t.Fatalf("JSON report lost data: %+v", back)
	}
	md := rep.Markdown()
	for _, want := range []string{"# sweep t — PASS", "| platform | load | scenario |", "Per-app detail", "mixed"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown report missing %q:\n%s", want, md)
		}
	}
	if !strings.Contains(progress.String(), "[2/2]") {
		t.Errorf("progress lines missing: %q", progress.String())
	}
}

// TestPointThatDoesNotFit: a point whose scenario does not fit its
// resolved platform fails naming the scenario and still reports that
// platform's topology; a variant that leaves the platform invalid fails
// naming the variant. Neither point profiles or runs.
func TestPointThatDoesNotFit(t *testing.T) {
	cfg, err := ParseConfig(`
sweep :: Sweep(NAME t, LOADS 1.0);
narrow :: Platform(SOCKETS 3, CORES_PER_SOCKET 2, L3_BYTES 524288);
bad    :: Platform(L3_WAYS 3);
nat    :: Run(FILE ../../examples/scenarios/nat_chain.click);
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Runner{Config: cfg, Scale: exp.Quick()}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 || rep.Pass {
		t.Fatalf("%d points, pass %v: want 2 points and a failed sweep", len(rep.Points), rep.Pass)
	}
	narrow, bad := rep.Points[0], rep.Points[1]
	if !strings.Contains(narrow.Error, "scenario nat_chain needs ≥4 cores per socket") {
		t.Errorf("narrow point: error %q, want it to name the scenario and its need", narrow.Error)
	}
	if narrow.Sockets != 3 || narrow.CoresPerSocket != 2 || narrow.L3Bytes != 524288 {
		t.Errorf("narrow point reports %d×%d, L3 %d: want the variant's 3×2, L3 524288",
			narrow.Sockets, narrow.CoresPerSocket, narrow.L3Bytes)
	}
	if !strings.HasPrefix(bad.Error, "platform bad: ") || !strings.Contains(bad.Error, "L3 geometry") {
		t.Errorf("bad point: error %q, want it to name the variant", bad.Error)
	}
}

// named returns an app report that carries only its name, for
// hand-built rows.
func named(name string) runtime.AppReport { return runtime.AppReport{Name: name} }

// TestReportAggregation checks the gate arithmetic on a hand-built
// report: non-validated rows never count, a failing app fails its point
// and the sweep, an errored point fails the sweep.
func TestReportAggregation(t *testing.T) {
	rep := &Report{
		Name: "agg",
		Points: []PointResult{
			{Apps: []AppResult{
				{AppReport: named("a"), Validated: true, Pass: true, PredErr: 0.02},
				{AppReport: named("syn"), Validated: false, PredErr: 0.9},
			}},
			{Apps: []AppResult{
				{AppReport: named("b"), Validated: true, Pass: false, PredErr: -0.3},
			}},
			// An errored point's partial rows (collected before the error)
			// must not shape the headline figures.
			{Error: "boom", Apps: []AppResult{
				{AppReport: named("c"), Validated: true, Pass: true, PredErr: 0.99},
			}},
		},
	}
	for i := range rep.Points {
		rep.Points[i].finish()
	}
	rep.aggregate()
	if rep.Points[0].Pass != true || rep.Points[0].MaxAbsErr != 0.02 || rep.Points[0].WorstApp != "a" {
		t.Fatalf("point 0 aggregation wrong: %+v", rep.Points[0])
	}
	if rep.Points[1].Pass {
		t.Fatal("failing app did not fail its point")
	}
	if rep.Points[2].Pass {
		t.Fatal("errored point passed")
	}
	if rep.Pass || rep.Failed != 2 {
		t.Fatalf("sweep gate wrong: pass=%v failed=%d", rep.Pass, rep.Failed)
	}
	if rep.MaxAbsErr != 0.3 {
		t.Fatalf("max |err| %v, want 0.3 (the failing app's, never the errored point's)", rep.MaxAbsErr)
	}
	if got := (0.02 + 0.3) / 2; rep.MeanAbsErr != got {
		t.Fatalf("mean |err| %v, want %v", rep.MeanAbsErr, got)
	}
	if !strings.Contains(rep.Markdown(), "error: boom") {
		t.Fatal("markdown omits the errored point")
	}
}

// TestEvalAppOperatingPoints checks evalApp's expected drop at each
// operating point its doc lists, on hand-built reports: a flow paced by
// an absolute Rate gets its offered fraction from the packets offered
// per replica over the run, as one paced by RateFraction states it.
func TestEvalAppOperatingPoints(t *testing.T) {
	const tol = 0.1
	// Two replicas of a one-stage flow, 2M pps solo each, predicted to
	// lose 30 % under contention (headroom 0.7), observed to lose 5 %.
	app := runtime.AppReport{Type: apps.MON, Workers: 2, Stages: 1, SoloPPS: 2e6, PredictedDrop: 0.3, ObservedDrop: 0.05}
	offered := func(perReplicaPPS float64) runtime.AppReport {
		a := app
		a.Offered = uint64(perReplicaPPS * 2 * 0.5) // two replicas, 0.5 s
		return a
	}
	cases := []struct {
		name           string
		spec           runtime.AppSpec
		app            runtime.AppReport
		skip, pass     bool
		frac, expected float64
	}{
		{name: "saturating", app: app, pass: false, expected: 0.3},
		{name: "fraction over solo", spec: runtime.AppSpec{RateFraction: 1.5}, app: app, pass: true, frac: 1.5, expected: 0.3},
		{name: "fraction within headroom", spec: runtime.AppSpec{RateFraction: 0.5}, app: app, pass: true, frac: 0.5},
		{name: "rate within headroom", spec: runtime.AppSpec{Rate: 2e6}, app: offered(1e6), pass: true, frac: 0.5},
		{name: "rate past headroom", spec: runtime.AppSpec{Rate: 6.4e6}, app: offered(3.2e6), pass: true, frac: 1.6, expected: 0.3},
		{name: "rate past headroom, under solo", spec: runtime.AppSpec{Rate: 3.5e6}, app: offered(1.75e6), pass: true, frac: 0.875, expected: 0.2},
		{name: "synthetic", app: runtime.AppReport{Type: apps.SYN, Workers: 1, Stages: 1}, skip: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			row, skip := evalApp(tc.spec, tc.app, &runtime.Report{}, 0.5, tol)
			if skip != tc.skip || row.Validated == tc.skip {
				t.Fatalf("skip %v validated %v, want skip %v", skip, row.Validated, tc.skip)
			}
			if skip {
				return
			}
			if math.Abs(row.OfferedFraction-tc.frac) > 1e-9 || math.Abs(row.ExpectedDrop-tc.expected) > 1e-9 || row.Pass != tc.pass {
				t.Fatalf("fraction %v expected drop %v pass %v, want %v %v %v",
					row.OfferedFraction, row.ExpectedDrop, row.Pass, tc.frac, tc.expected, tc.pass)
			}
			if want := tc.app.ObservedDrop - row.ExpectedDrop; math.Abs(row.PredErr-want) > 1e-9 {
				t.Fatalf("error %v, want observed − expected = %v", row.PredErr, want)
			}
		})
	}
}
