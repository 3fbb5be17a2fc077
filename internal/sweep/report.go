package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"pktpredict/internal/runtime"
	"pktpredict/internal/table"
)

// AppResult is one app's row at one grid point: the runtime's report of
// the app plus the sweep's verdict on it.
type AppResult struct {
	runtime.AppReport
	Replicas int `json:"replicas"`

	// OfferedFraction is the offered load as a fraction of the app's solo
	// rate at this point (0 = saturating).
	OfferedFraction float64 `json:"offered_fraction"`
	// RemotePerPacket is the mean of the app's workers' whole-window
	// remote references per packet: the report's locality column.
	RemotePerPacket float64 `json:"remote_per_packet"`

	// SLOPass reports whether the whole-run p99 met the declared objective
	// (SLOP99US). An app with a declared SLO fails its point on breach
	// even when drop validation skips it.
	SLOPass bool `json:"slo_pass"`

	// ExpectedDrop is the drop the model expects at this operating point
	// (the curve prediction for saturating flows, the headroom-derived
	// figure for paced ones); PredErr = ObservedDrop − ExpectedDrop.
	ExpectedDrop float64 `json:"expected_drop"`
	PredErr      float64 `json:"prediction_error"`

	// Validated marks apps whose error counts toward the gate; synthetic
	// probes and hidden aggressors are reported but never validated.
	Validated bool `json:"validated"`
	Pass      bool `json:"pass"`
}

// PointResult is one grid point's outcome.
type PointResult struct {
	Platform string  `json:"platform"`
	Load     float64 `json:"load"`
	Scenario string  `json:"scenario"`

	// Effective platform summary, for report readers.
	Sockets        int `json:"sockets"`
	CoresPerSocket int `json:"cores_per_socket"`
	L3Bytes        int `json:"l3_bytes"`

	Tolerance float64 `json:"tolerance"`

	Migrations     int `json:"migrations"`
	ThrottleEvents int `json:"throttle_events"`

	Apps []AppResult `json:"apps"`

	// MaxAbsErr/MeanAbsErr aggregate |prediction error| over the point's
	// validated apps; WorstApp names the max.
	MaxAbsErr  float64 `json:"max_abs_error"`
	MeanAbsErr float64 `json:"mean_abs_error"`
	WorstApp   string  `json:"worst_app"`

	Pass bool `json:"pass"`
	// Error is set when the point failed to execute at all (load error,
	// platform invalid on this scenario, broken conservation, ...); such
	// a point never passes.
	Error string `json:"error,omitempty"`

	HostSeconds float64 `json:"host_seconds"`
}

// Report is a whole sweep's outcome: the grid's axes, every point, and
// the headline prediction-error aggregates.
type Report struct {
	Name      string    `json:"name"`
	Scale     string    `json:"scale"`
	Duration  float64   `json:"duration"`
	Tolerance float64   `json:"tolerance"`
	Platforms []string  `json:"platforms"`
	Loads     []float64 `json:"loads"`
	Scenarios []string  `json:"scenarios"`

	Points []PointResult `json:"points"`

	// MaxAbsErr/MeanAbsErr aggregate over every validated app row of
	// every executed point — the sweep's reproduction of the paper's
	// "prediction within a few percent" table bottom line.
	MaxAbsErr  float64 `json:"max_abs_error"`
	MeanAbsErr float64 `json:"mean_abs_error"`
	Failed     int     `json:"failed_points"`
	Pass       bool    `json:"pass"`
}

// absErr accumulates |prediction error| over validated app rows: the one
// derivation of the max / mean figures a point, a report and a trend
// entry carry.
type absErr struct {
	n        int
	sum, max float64
	worst    string // the app holding max; of equals, the last
}

func (e *absErr) add(a AppResult) {
	if !a.Validated {
		return
	}
	v := math.Abs(a.PredErr)
	e.n++
	e.sum += v
	if v >= e.max {
		e.max, e.worst = v, a.Name
	}
}

func (e *absErr) mean() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum / float64(e.n)
}

// finish computes a point's aggregates from its app rows.
func (p *PointResult) finish() {
	p.Pass = p.Error == ""
	var e absErr
	for _, a := range p.Apps {
		// A declared latency SLO gates the point independently of drop
		// validation — even synthetic or hidden flows can carry one.
		if a.SLOP99US > 0 && !a.SLOPass || a.Validated && !a.Pass {
			p.Pass = false
		}
		e.add(a)
	}
	p.MaxAbsErr, p.MeanAbsErr, p.WorstApp = e.max, e.mean(), e.worst
}

// aggregate computes the report's totals from its points. A point that
// errored out contributes only its failure: any app rows it collected
// before the error come from a run with known-broken accounting and
// must not shape the headline error figures.
func (r *Report) aggregate() {
	r.Pass = true
	var e absErr
	for _, p := range r.Points {
		if p.Error != "" || !p.Pass {
			r.Failed++
			r.Pass = false
		}
		if p.Error != "" {
			continue
		}
		for _, a := range p.Apps {
			e.add(a)
		}
	}
	r.MaxAbsErr, r.MeanAbsErr = e.max, e.mean()
}

// JSON renders the machine-readable report (the CI artifact).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Markdown renders the human-readable report: a summary, the per-point
// table and the per-app detail table.
func (r *Report) Markdown() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "# sweep %s — %s\n\n", r.Name, verdict)
	fmt.Fprintf(&b, "%d platforms × %d loads × %d scenarios = %d points (%s scale, %.1f ms virtual per point)\n\n",
		len(r.Platforms), len(r.Loads), len(r.Scenarios), len(r.Points), r.Scale, r.Duration*1e3)
	fmt.Fprintf(&b, "Prediction error over all validated apps: max %.1f%%, mean %.1f%%; %d/%d points failed.\n\n",
		r.MaxAbsErr*100, r.MeanAbsErr*100, r.Failed, len(r.Points))

	f2 := func(f float64) string { return fmt.Sprintf("%.2f", f) }
	points := table.New("", "platform", "load", "scenario", "topology", "apps", "max |err|", "mean |err|",
		"worst app", "tol", "migr", "thr", "result").Format(f2, "load").Format(percent, "max |err|", "mean |err|")
	detail := table.New("", "platform", "load", "scenario", "app", "type", "offered", "obs drop", "pred drop",
		"expected", "err", "goodput pps", "rem/pkt", "p50 µs", "p99 µs", "slo", "validated").
		Format(f2, "load", "rem/pkt").Format(percent, "obs drop", "pred drop", "expected")
	for _, p := range r.Points {
		nv := 0
		for _, a := range p.Apps {
			off := "sat"
			if a.OfferedFraction > 0 {
				off = fmt.Sprintf("%.2f×solo", a.OfferedFraction)
			}
			val := "–"
			if a.Validated {
				nv++
				val = "pass"
				if !a.Pass {
					val = "**FAIL**"
				}
			}
			p50, p99 := "–", "–"
			if a.LatCount > 0 {
				p50 = fmt.Sprintf("%.1f", a.LatP50US)
				p99 = fmt.Sprintf("%.1f", a.LatP99US)
			}
			slo := "–"
			if a.SLOP99US > 0 {
				slo = fmt.Sprintf("≤%.0f ok", a.SLOP99US)
				if !a.SLOPass {
					slo = fmt.Sprintf("≤%.0f **BREACH** (%d win)", a.SLOP99US, a.SLOBreaches)
				}
			}
			detail.Add(p.Platform, p.Load, p.Scenario, a.Name, a.Type, off, a.ObservedDrop, a.PredictedDrop,
				a.ExpectedDrop, fmt.Sprintf("%+.1f%%", a.PredErr*100), fmt.Sprintf("%.2fM", a.GoodputPPS/1e6),
				a.RemotePerPacket, p50, p99, slo, val)
		}
		result := "pass"
		switch {
		case p.Error != "":
			result = "error: " + p.Error
		case !p.Pass:
			result = "**FAIL**"
		}
		points.Add(p.Platform, p.Load, p.Scenario,
			fmt.Sprintf("%d×%d, L3 %s", p.Sockets, p.CoresPerSocket, fmtBytes(p.L3Bytes)), nv, p.MaxAbsErr,
			p.MeanAbsErr, dash(p.WorstApp), fmt.Sprintf("%.0f%%", p.Tolerance*100), p.Migrations, p.ThrottleEvents, result)
	}
	return b.String() + points.Markdown() + "\n## Per-app detail\n\n" + detail.Markdown()
}

// percent formats a fraction as a percentage with one decimal.
func percent(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

func dash(s string) string {
	if s == "" {
		return "–"
	}
	return s
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
