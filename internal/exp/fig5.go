package exp

import (
	"math"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/table"
)

// Fig5Result reproduces Figure 5: each target type's drop-versus-
// competition curve measured against SYN competitors (from the profiling
// sweep), overlaid with the individual points measured against realistic
// competitors (from Figure 2). The paper's observation (b) — damage is
// determined by competing refs/sec, not competitor type — holds when the
// realistic points fall on the synthetic curves.
type Fig5Result struct {
	Curves map[apps.FlowType]core.Curve
	Points []Fig2Cell
}

// RunFig5 builds the overlay from the predictor's sweeps and the Figure 2
// measurements, which p's memo makes a lookup once Figure 2 has run.
func RunFig5(p *core.Predictor) (*Fig5Result, error) {
	fig2, err := RunFig2(p)
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{Curves: make(map[apps.FlowType]core.Curve)}
	for _, t := range apps.RealisticTypes {
		c, err := p.Curve(t)
		if err != nil {
			return nil, err
		}
		out.Curves[t] = c
	}
	out.Points = fig2.Cells
	return out, nil
}

// Deviation returns, for one realistic-competitor point, the absolute
// difference between its measured drop and the synthetic curve's drop at
// the same competition level — the quantity that must be small for the
// paper's observation (b) to hold.
func (r *Fig5Result) Deviation(cell Fig2Cell) float64 {
	curve, ok := r.Curves[cell.Target]
	if !ok {
		return 0
	}
	return math.Abs(cell.Drop - curve.DropAt(cell.CompetingRefsPerSec))
}

// MaxDeviation returns the worst-case deviation across all points.
func (r *Fig5Result) MaxDeviation() float64 {
	var m float64
	for _, cell := range r.Points {
		m = max(m, r.Deviation(cell))
	}
	return m
}

// MeanDeviation returns the average deviation across all points.
func (r *Fig5Result) MeanDeviation() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	var sum float64
	for _, cell := range r.Points {
		sum += r.Deviation(cell)
	}
	return sum / float64(len(r.Points))
}

// Table lists the SYN curves' points, then the realistic points; a note
// carries how far the latter fall from the former.
func (r *Fig5Result) Table() *table.Table {
	t := table.New("Figure 5: drop vs competing refs/sec, SYN curves and realistic points",
		"kind", "target", "competitor", "competing_refs_per_sec", "drop").
		Format(mrefs, "competing_refs_per_sec").Format(pct, "drop")
	for _, target := range apps.RealisticTypes {
		for _, pt := range r.Curves[target].Points {
			t.Add("syn_curve", target, "SYN", pt.CompetingRefsPerSec, pt.Drop)
		}
	}
	for _, c := range r.Points {
		t.Add("realistic", c.Target, c.Competitor, c.CompetingRefsPerSec, c.Drop)
	}
	t.Note("max |realistic - synthetic| deviation: %s (mean %s)", pct(r.MaxDeviation()), pct(r.MeanDeviation()))
	return t
}
