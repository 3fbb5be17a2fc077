package sweep

import (
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.md.golden from this run")

// wantMarkdown requires a rendered report to equal the committed golden
// byte for byte; -args -update rewrites it.
func wantMarkdown(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("markdown differs from %s:\n%s", path, got)
	}
}

// goldenReport is a hand-built report that reaches every cell form the
// markdown renders: a passing point with latencies and a met SLO, a point
// whose validated app fails and whose SLO is breached, and an errored
// point whose message carries a table delimiter and a newline.
func goldenReport() *Report {
	rep := &Report{
		Name: "golden", Scale: "quick", Duration: 0.004, Tolerance: 0.18,
		Platforms: []string{"base", "half_l3"}, Loads: []float64{0.7, 1},
		Scenarios: []string{"mixed.click", "slo.click"},
		Points: []PointResult{
			{Platform: "base", Load: 0.7, Scenario: "mixed.click", Sockets: 2, CoresPerSocket: 6,
				L3Bytes: 1 << 20, Tolerance: 0.18, Migrations: 1, Apps: []AppResult{
					{App: "mon", Type: "MON", OfferedFraction: 0.7, ObservedDrop: 0.031, PredictedDrop: 0.042,
						ExpectedDrop: 0.02, PredErr: 0.011, GoodputPPS: 2.5e6, RemotePerPacket: 0.125,
						LatCount: 100, LatP50US: 12.34, LatP99US: 56.78, SLOP99US: 100, SLOPass: true,
						Validated: true, Pass: true},
					{App: "probe", Type: "SYN", ObservedDrop: 0.5, PredErr: 0.4},
				}},
			{Platform: "base", Load: 1, Scenario: "slo.click", Sockets: 2, CoresPerSocket: 6,
				L3Bytes: 768 << 10, Tolerance: 0.18, ThrottleEvents: 3, Apps: []AppResult{
					{App: "fw", Type: "FW", ObservedDrop: 0.3, PredictedDrop: 0.05, ExpectedDrop: 0.05,
						PredErr: -0.25, GoodputPPS: 1.25e6, Validated: true},
					{App: "vpn", Type: "VPN", OfferedFraction: 1.5, LatCount: 10, LatP50US: 3, LatP99US: 9.99,
						SLOP99US: 5, SLOBreaches: 3},
				}},
			{Platform: "half_l3", Load: 1, Scenario: "mixed.click", Sockets: 1, CoresPerSocket: 4,
				L3Bytes: 1000, Tolerance: 0.2, Error: "load x.click: key A|B\nsecond line"},
		},
	}
	for i := range rep.Points {
		rep.Points[i].finish()
	}
	rep.aggregate()
	return rep
}

// TestReportMarkdownGolden pins the sweep report's markdown, every
// escape and placeholder included.
func TestReportMarkdownGolden(t *testing.T) {
	wantMarkdown(t, "testdata/report.md.golden", goldenReport().Markdown())
}

// TestTrendMarkdownGolden pins the trend table over two revisions of
// trendReport, one carrying latencies, and the empty store's text.
func TestTrendMarkdownGolden(t *testing.T) {
	if got, want := (&Trend{}).Markdown(), "# prediction-error trend\n\nno entries yet\n"; got != want {
		t.Fatalf("empty trend = %q, want %q", got, want)
	}
	tr := &Trend{}
	tr.Append(trendReport("quick", 0.02, 0.04), "rev1", "2026-08-07T00:00:00Z")
	rep := trendReport("quick", 0.01, 0.06)
	rep.Points[0].Apps[0].LatCount, rep.Points[0].Apps[0].LatP99US = 100, 42.5
	rep.Points[1].Apps[0].SLOBreaches = 2
	tr.Append(rep, "rev2", "2026-08-08T00:00:00Z")
	wantMarkdown(t, "testdata/trend.md.golden", tr.Markdown())
}
