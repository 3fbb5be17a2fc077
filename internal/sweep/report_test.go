package sweep

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"pktpredict/internal/runtime"
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
					{AppReport: runtime.AppReport{Name: "mon", Type: "MON", ObservedDrop: 0.031, PredictedDrop: 0.042,
						GoodputPPS: 2.5e6, LatCount: 100, LatP50US: 12.34, LatP99US: 56.78, SLOP99US: 100},
						OfferedFraction: 0.7, ExpectedDrop: 0.02, PredErr: 0.011, RemotePerPacket: 0.125,
						SLOPass: true, Validated: true, Pass: true},
					{AppReport: runtime.AppReport{Name: "probe", Type: "SYN", ObservedDrop: 0.5}, PredErr: 0.4},
				}},
			{Platform: "base", Load: 1, Scenario: "slo.click", Sockets: 2, CoresPerSocket: 6,
				L3Bytes: 768 << 10, Tolerance: 0.18, ThrottleEvents: 3, Apps: []AppResult{
					{AppReport: runtime.AppReport{Name: "fw", Type: "FW", ObservedDrop: 0.3, PredictedDrop: 0.05,
						GoodputPPS: 1.25e6}, ExpectedDrop: 0.05, PredErr: -0.25, Validated: true},
					{AppReport: runtime.AppReport{Name: "vpn", Type: "VPN", LatCount: 10, LatP50US: 3, LatP99US: 9.99,
						SLOP99US: 5, SLOBreaches: 3}, OfferedFraction: 1.5},
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

// TestAppRowKeys: an app row's JSON carries every key the row carried
// before it embedded runtime.AppReport — the CI artifact's readers key on
// them. Every field is set, so the omitempty keys show too.
func TestAppRowKeys(t *testing.T) {
	row := AppResult{
		AppReport: runtime.AppReport{Name: "mon", Type: "MON", Stages: 1, Offered: 1, Processed: 1, Finished: 1,
			NICDrops: 1, ObservedPPS: 1, GoodputPPS: 1, SoloPPS: 1, LatCount: 1, LatP50US: 1, LatP99US: 1,
			LatP999US: 1, SLOP99US: 1, SLOBreaches: 1, SLOBurnRate: 1, ObservedDrop: 1, PredictedDrop: 1},
		Replicas: 1, OfferedFraction: 1, RemotePerPacket: 1, SLOPass: true, ExpectedDrop: 1, PredErr: 1,
		Validated: true, Pass: true,
	}
	js, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(js, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"app", "type", "replicas", "stages", "offered_fraction", "offered", "processed",
		"finished", "nic_drops", "observed_pps", "goodput_pps", "solo_pps", "remote_per_packet", "lat_count",
		"lat_p50_us", "lat_p99_us", "lat_p999_us", "slo_p99_us", "slo_breaches", "slo_burn_rate", "slo_pass",
		"observed_drop", "predicted_drop", "expected_drop", "prediction_error", "validated", "pass"} {
		if _, ok := got[k]; !ok {
			t.Errorf("an app row has no %q key: %s", k, js)
		}
	}
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
