package sweep

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pktpredict/internal/table"
)

// Trend is a persistent prediction-error history: one entry per
// (git revision, scenario), appended by each sweep run (cmd/sweep
// -trend). It turns the per-PR smoke sweep into a time series — did this
// change move the model's accuracy on any scenario? — without anyone
// diffing JSON artifacts by hand.
type Trend struct {
	Entries []TrendEntry `json:"entries"`
}

// TrendEntry is one (revision, scenario) accuracy measurement. Re-running
// the same revision overwrites its entry (the measurement is refreshed,
// not duplicated).
type TrendEntry struct {
	GitRev   string `json:"git_rev"`
	When     string `json:"when"` // RFC3339, recorded by the caller
	Scale    string `json:"scale"`
	Sweep    string `json:"sweep"`
	Scenario string `json:"scenario"`

	// MaxAbsErr/MeanAbsErr aggregate |prediction error| over the
	// scenario's validated app rows across every grid point that ran it.
	MaxAbsErr  float64 `json:"max_abs_error"`
	MeanAbsErr float64 `json:"mean_abs_error"`
	Points     int     `json:"points"`
	Failed     int     `json:"failed_points"`

	// MaxP99US is the worst whole-run p99 latency (virtual µs) over the
	// scenario's latency-recording app rows; SLOBreaches totals their
	// breached control windows. Zero when no app recorded latencies.
	MaxP99US    float64 `json:"max_p99_us,omitempty"`
	SLOBreaches int     `json:"slo_breaches,omitempty"`
}

// LoadTrend reads a trend store; a missing file is an empty store, and
// so is a damaged one (moved aside to path+".corrupt", see loadStore).
func LoadTrend(path string) (*Trend, error) {
	var t Trend
	if ok, err := loadStore("trend", path, &t, nil); err != nil || !ok {
		return &Trend{}, err
	}
	return &t, nil
}

// Save writes the store back atomically (see saveStore), stable-sorted
// so diffs stay readable: scenario first, then insertion order (the
// revision time series).
func (t *Trend) Save(path string) error {
	sort.SliceStable(t.Entries, func(i, j int) bool {
		return t.Entries[i].Scenario < t.Entries[j].Scenario
	})
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return saveStore("trend", path, data)
}

// Append folds one sweep report into the store: per scenario, the
// max/mean |prediction error| over that scenario's validated app rows.
// An existing entry for the same (rev, scenario) is replaced.
func (t *Trend) Append(rep *Report, rev, when string) {
	type agg struct {
		err      absErr
		points   int
		failed   int
		maxP99   float64
		breaches int
	}
	byScenario := map[string]*agg{}
	for _, p := range rep.Points {
		a := byScenario[p.Scenario]
		if a == nil {
			a = &agg{}
			byScenario[p.Scenario] = a
		}
		a.points++
		if p.Error != "" || !p.Pass {
			a.failed++
		}
		if p.Error != "" {
			continue // broken accounting must not shape the trend
		}
		for _, ar := range p.Apps {
			if ar.LatCount > 0 && ar.LatP99US > a.maxP99 {
				a.maxP99 = ar.LatP99US
			}
			a.breaches += ar.SLOBreaches
			a.err.add(ar)
		}
	}
	names := make([]string, 0, len(byScenario))
	for s := range byScenario {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		a := byScenario[s]
		t.upsert(TrendEntry{
			GitRev: rev, When: when, Scale: rep.Scale, Sweep: rep.Name,
			Scenario: s, MaxAbsErr: a.err.max, MeanAbsErr: a.err.mean(), Points: a.points, Failed: a.failed,
			MaxP99US: a.maxP99, SLOBreaches: a.breaches,
		})
	}
}

// upsert replaces the entry matching (rev, scenario) or appends.
func (t *Trend) upsert(e TrendEntry) {
	for i, old := range t.Entries {
		if old.GitRev == e.GitRev && old.Scenario == e.Scenario {
			t.Entries[i] = e
			return
		}
	}
	t.Entries = append(t.Entries, e)
}

// Markdown renders the trend table, grouped by scenario with revisions
// in recorded order — the accuracy time series a reviewer reads to spot
// a regression the pass/fail gate's tolerance still admits.
func (t *Trend) Markdown() string {
	if len(t.Entries) == 0 {
		return "# prediction-error trend\n\nno entries yet\n"
	}
	tb := table.New("prediction-error trend", "scenario", "rev", "when", "scale", "max |err|", "mean |err|",
		"max p99 µs", "slo breaches", "points", "failed").Format(percent, "max |err|", "mean |err|")
	for _, s := range t.Scenarios() {
		for _, e := range t.Entries {
			if e.Scenario != s {
				continue
			}
			p99 := "–"
			if e.MaxP99US > 0 {
				p99 = fmt.Sprintf("%.1f", e.MaxP99US)
			}
			tb.Add(e.Scenario, e.GitRev, e.When, e.Scale, e.MaxAbsErr, e.MeanAbsErr, p99, e.SLOBreaches, e.Points, e.Failed)
		}
	}
	return tb.Markdown()
}

// Scenarios lists the store's scenarios, sorted.
func (t *Trend) Scenarios() []string {
	order, seen := []string{}, map[string]bool{}
	for _, e := range t.Entries {
		if !seen[e.Scenario] {
			seen[e.Scenario] = true
			order = append(order, e.Scenario)
		}
	}
	sort.Strings(order)
	return order
}

// SparklineSVG renders one scenario's max-|error| time series as a
// small self-contained SVG — the artifact a nightly job uploads so a
// reviewer sees the accuracy trajectory without parsing the table.
// Returns "" when the store has no entries for the scenario.
func (t *Trend) SparklineSVG(scen string) string {
	var vals []float64
	var revs []string
	for _, e := range t.Entries {
		if e.Scenario == scen {
			vals = append(vals, e.MaxAbsErr)
			revs = append(revs, e.GitRev)
		}
	}
	if len(vals) == 0 {
		return ""
	}
	const w, h, pad = 480, 120, 12.0
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1e-9 // flat-zero series still renders a baseline
	}
	x := func(i int) float64 {
		if len(vals) == 1 {
			return w / 2
		}
		return pad + (w-2*pad)*float64(i)/float64(len(vals)-1)
	}
	y := func(v float64) float64 {
		return h - pad - (h-2*pad)*(v/max)
	}
	var pts strings.Builder
	for i, v := range vals {
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x(i), y(v))
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	fmt.Fprintf(&b, `<title>%s max |prediction error| by revision</title>`, xmlEscape(scen))
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, w, h)
	fmt.Fprintf(&b, `<polyline fill="none" stroke="#1f77b4" stroke-width="2" points="%s"/>`, pts.String())
	for i, v := range vals {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="#1f77b4"><title>%s: %.2f%%</title></circle>`,
			x(i), y(v), xmlEscape(revs[i]), v*100)
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="10" fill="#555">%s — max |err| peak %.2f%%</text>`,
		pad, pad-2, xmlEscape(scen), max*100)
	b.WriteString(`</svg>`)
	return b.String()
}

func xmlEscape(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace(s)
}
