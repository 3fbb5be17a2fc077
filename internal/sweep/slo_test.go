package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pktpredict/internal/exp"
	"pktpredict/internal/runtime"
)

// TestPointSLOGate checks the gate arithmetic alone: a declared SLO
// that did not pass fails the point even when the app's prediction
// error validated, and even for rows that are not validated at all
// (synthetic flows still owe their latency objective).
func TestPointSLOGate(t *testing.T) {
	p := PointResult{Apps: []AppResult{
		{AppReport: runtime.AppReport{Name: "good", SLOP99US: 100}, Validated: true, Pass: true, SLOPass: true},
		{AppReport: runtime.AppReport{Name: "slow", SLOP99US: 10}, Validated: true, Pass: true, SLOPass: false},
	}}
	p.finish()
	if p.Pass {
		t.Fatal("point passed despite a breached SLO on a validated app")
	}

	p = PointResult{Apps: []AppResult{
		{AppReport: runtime.AppReport{Name: "syn", SLOP99US: 10}, Validated: false, SLOPass: false},
	}}
	p.finish()
	if p.Pass {
		t.Fatal("point passed despite a breached SLO on an unvalidated app")
	}

	p = PointResult{Apps: []AppResult{
		{AppReport: named("free"), Validated: true, Pass: true}, // no SLO declared
		{AppReport: runtime.AppReport{Name: "good", SLOP99US: 100}, Validated: true, Pass: true, SLOPass: true},
	}}
	p.finish()
	if !p.Pass {
		t.Fatal("point failed with every declared SLO met")
	}
}

// TestSweepSLOBreachFailsRun drives the full pipeline over a scenario
// whose flow declares an unachievable p99 objective: the sweep must
// carry the measured percentiles into the report, mark the breach in
// the markdown, and exit its gate red — while the same scenario with a
// generous objective stays green.
func TestSweepSLOBreachFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep execution test skipped in -short mode (runs in the CI sweep step)")
	}
	run := func(sloUS string) *Report {
		t.Helper()
		dir := t.TempDir()
		scen := filepath.Join(dir, "slo.click")
		if err := os.WriteFile(scen, []byte(`
scenario :: Scenario(NAME slo, MIN_CORES_PER_SOCKET 2, FIT 6);
ipfwd :: Flow(TYPE IP, WORKERS 1, SLO_P99_US `+sloUS+`);
`), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, err := ParseConfig(`
sweep :: Sweep(NAME slo, DURATION 0.004, WARMUP 0.0003, QUANTUM 100000,
               CONTROL_EVERY 4, TOLERANCE 0.2, LOADS 1.0);
slo :: Run(FILE ` + scen + `);
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
		if len(rep.Points) != 1 {
			t.Fatalf("%d points, want 1", len(rep.Points))
		}
		if e := rep.Points[0].Error; e != "" {
			t.Fatalf("point errored: %s", e)
		}
		return rep
	}

	breach := run("0.001") // 1 ns: no packet finishes that fast
	var row *AppResult
	for i := range breach.Points[0].Apps {
		if breach.Points[0].Apps[i].Name == "ipfwd" {
			row = &breach.Points[0].Apps[i]
		}
	}
	if row == nil {
		t.Fatal("report lost the ipfwd row")
	}
	if row.LatCount == 0 || row.LatP99US <= 0 || row.LatP50US > row.LatP99US {
		t.Fatalf("latency percentiles missing from the row: %+v", row)
	}
	if row.SLOP99US != 0.001 || row.SLOPass {
		t.Fatalf("unachievable SLO did not register as breached: %+v", row)
	}
	if breach.Pass {
		t.Fatal("sweep gate stayed green through an SLO breach")
	}
	if md := breach.Markdown(); !strings.Contains(md, "BREACH") {
		t.Fatalf("markdown does not flag the breach:\n%s", md)
	}

	ok := run("1e9") // a whole virtual second of budget
	if !ok.Pass {
		t.Fatalf("generous SLO failed the sweep:\n%s", ok.Markdown())
	}
	if md := ok.Markdown(); !strings.Contains(md, "ok") {
		t.Fatalf("markdown does not show the met objective:\n%s", md)
	}
}
