package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func trendReport(scale string, errA, errB float64) *Report {
	rep := &Report{
		Name:  "smoke",
		Scale: scale,
		Points: []PointResult{
			{
				Scenario: "mixed.click", Pass: true,
				Apps: []AppResult{
					{AppReport: named("ipfwd"), PredErr: errA, Validated: true, Pass: true},
					{AppReport: named("probe"), PredErr: 0.9, Validated: false},
				},
			},
			{
				Scenario: "mixed.click", Pass: true,
				Apps: []AppResult{
					{AppReport: named("ipfwd"), PredErr: -errB, Validated: true, Pass: true},
				},
			},
			{
				Scenario: "bursty.click", Pass: false,
				Error: "platform invalid",
				Apps: []AppResult{
					{AppReport: named("stale"), PredErr: 0.5, Validated: true},
				},
			},
		},
	}
	return rep
}

func TestTrendAppendAggregatesPerScenario(t *testing.T) {
	tr := &Trend{}
	tr.Append(trendReport("quick", 0.02, 0.04), "abc1234", "2026-08-08T00:00:00Z")

	if len(tr.Entries) != 2 {
		t.Fatalf("got %d entries, want 2 (one per scenario): %+v", len(tr.Entries), tr.Entries)
	}
	byScenario := map[string]TrendEntry{}
	for _, e := range tr.Entries {
		byScenario[e.Scenario] = e
	}
	mixed := byScenario["mixed.click"]
	if mixed.GitRev != "abc1234" || mixed.Scale != "quick" || mixed.Sweep != "smoke" {
		t.Fatalf("mixed entry keys wrong: %+v", mixed)
	}
	if mixed.MaxAbsErr != 0.04 {
		t.Fatalf("mixed max err = %v, want 0.04 (|−0.04|, unvalidated rows excluded)", mixed.MaxAbsErr)
	}
	if got, want := mixed.MeanAbsErr, (0.02+0.04)/2; got != want {
		t.Fatalf("mixed mean err = %v, want %v", got, want)
	}
	if mixed.Points != 2 || mixed.Failed != 0 {
		t.Fatalf("mixed points/failed = %d/%d, want 2/0", mixed.Points, mixed.Failed)
	}
	// An errored point contributes its failure but not its stale app rows.
	bursty := byScenario["bursty.click"]
	if bursty.MaxAbsErr != 0 || bursty.Failed != 1 || bursty.Points != 1 {
		t.Fatalf("errored point leaked into aggregates: %+v", bursty)
	}
}

func TestTrendUpsertAndPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.json")
	tr, err := LoadTrend(path) // missing file: empty store
	if err != nil {
		t.Fatal(err)
	}
	tr.Append(trendReport("quick", 0.02, 0.04), "rev1", "2026-08-07T00:00:00Z")
	tr.Append(trendReport("quick", 0.01, 0.03), "rev2", "2026-08-08T00:00:00Z")
	// Re-running rev2 refreshes its entries instead of duplicating them.
	tr.Append(trendReport("quick", 0.05, 0.05), "rev2", "2026-08-08T01:00:00Z")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}

	got, err := LoadTrend(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 4 {
		t.Fatalf("got %d entries, want 4 (2 scenarios x 2 revs): %+v", len(got.Entries), got.Entries)
	}
	revs := map[string]int{}
	for _, e := range got.Entries {
		revs[e.GitRev]++
		if e.GitRev == "rev2" && e.Scenario == "mixed.click" && e.MaxAbsErr != 0.05 {
			t.Fatalf("rev2 re-run did not refresh the entry: %+v", e)
		}
	}
	if revs["rev1"] != 2 || revs["rev2"] != 2 {
		t.Fatalf("rev entry counts wrong: %v", revs)
	}

	md := got.Markdown()
	for _, want := range []string{"| scenario |", "mixed.click", "bursty.click", "rev1", "rev2"} {
		if !strings.Contains(md, want) {
			t.Fatalf("trend markdown missing %q:\n%s", want, md)
		}
	}
	// Grouped by scenario: every bursty row precedes the first mixed row.
	if strings.Index(md, "bursty.click") > strings.Index(md, "mixed.click") {
		t.Fatalf("trend table not grouped by scenario:\n%s", md)
	}
}

// TestTrendCorruptStoreRecovery: a store that no longer parses must not
// kill the nightly job — it is moved aside for inspection and the run
// starts a fresh history.
func TestTrendCorruptStoreRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.json")
	if err := os.WriteFile(path, []byte(`{"entries": [{"git_rev": "tru`), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrend(path)
	if err != nil {
		t.Fatalf("corrupt store returned an error instead of recovering: %v", err)
	}
	if len(tr.Entries) != 0 {
		t.Fatalf("corrupt store yielded entries: %+v", tr.Entries)
	}
	moved, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("damaged bytes were not preserved: %v", err)
	}
	if !strings.Contains(string(moved), "tru") {
		t.Fatalf("preserved bytes are not the original store: %q", moved)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt store still in place after recovery")
	}
	// The recovered (empty) store saves and loads normally.
	tr.Append(trendReport("quick", 0.02, 0.04), "rev1", "2026-08-08T00:00:00Z")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadTrend(path); err != nil || len(got.Entries) == 0 {
		t.Fatalf("recovered store did not persist: %v, %+v", err, got)
	}
}

// TestTrendSaveAtomic: Save must leave exactly the store file behind —
// no orphaned temp files — and the written file must parse even after
// repeated saves over the same path.
func TestTrendSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trend.json")
	tr := &Trend{}
	tr.Append(trendReport("quick", 0.02, 0.04), "rev1", "2026-08-08T00:00:00Z")
	for i := 0; i < 3; i++ {
		if err := tr.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != "trend.json" {
		list := []string{}
		for _, n := range names {
			list = append(list, n.Name())
		}
		t.Fatalf("Save left extra files behind: %v", list)
	}
	if _, err := LoadTrend(path); err != nil {
		t.Fatalf("saved store does not parse: %v", err)
	}
}

// TestTrendLatencyAggregation: the trend entry carries the scenario's
// worst p99 and total breached windows so a latency regression shows in
// the nightly table even when prediction accuracy holds.
func TestTrendLatencyAggregation(t *testing.T) {
	rep := trendReport("quick", 0.02, 0.04)
	rep.Points[0].Apps[0].LatCount = 1000
	rep.Points[0].Apps[0].LatP99US = 42.5
	rep.Points[0].Apps[0].SLOBreaches = 3
	rep.Points[1].Apps[0].LatCount = 800
	rep.Points[1].Apps[0].LatP99US = 55.25
	rep.Points[1].Apps[0].SLOBreaches = 2
	// The errored point's rows carry latencies too; they must not count.
	rep.Points[2].Apps[0].LatCount = 10
	rep.Points[2].Apps[0].LatP99US = 999
	rep.Points[2].Apps[0].SLOBreaches = 99

	tr := &Trend{}
	tr.Append(rep, "rev1", "2026-08-08T00:00:00Z")
	var mixed TrendEntry
	for _, e := range tr.Entries {
		if e.Scenario == "mixed.click" {
			mixed = e
		}
	}
	if mixed.MaxP99US != 55.25 {
		t.Fatalf("max p99 = %v, want 55.25 (worst across the scenario's points)", mixed.MaxP99US)
	}
	if mixed.SLOBreaches != 5 {
		t.Fatalf("slo breaches = %d, want 5 (summed across points)", mixed.SLOBreaches)
	}
	md := tr.Markdown()
	if !strings.Contains(md, "55.2") || !strings.Contains(md, "max p99") {
		t.Fatalf("markdown lacks the latency columns:\n%s", md)
	}
}

// TestTrendSparklineSVG: the per-scenario artifact is a well-formed,
// self-contained SVG with one point per revision; unknown scenarios
// yield nothing.
func TestTrendSparklineSVG(t *testing.T) {
	tr := &Trend{}
	tr.Append(trendReport("quick", 0.02, 0.04), "rev1", "2026-08-07T00:00:00Z")
	tr.Append(trendReport("quick", 0.01, 0.06), "rev2", "2026-08-08T00:00:00Z")
	svg := tr.SparklineSVG("mixed.click")
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatalf("not a self-contained SVG: %q", svg)
	}
	for _, want := range []string{"<polyline", "rev1", "rev2", "mixed.click"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("sparkline missing %q:\n%s", want, svg)
		}
	}
	if got := strings.Count(svg, "<circle"); got != 2 {
		t.Fatalf("sparkline has %d markers, want 2 (one per revision)", got)
	}
	if tr.SparklineSVG("nope.click") != "" {
		t.Fatal("unknown scenario produced an SVG")
	}
	// A scenario whose entries are all zero-error still renders.
	flat := &Trend{Entries: []TrendEntry{{GitRev: "r", Scenario: "flat.click"}}}
	if s := flat.SparklineSVG("flat.click"); !strings.Contains(s, "<circle") {
		t.Fatalf("flat-zero series did not render: %q", s)
	}
}
