package exp

import (
	"fmt"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/table"
)

// Fig6Point is one flow type's position on Figure 6: its solo hits/sec
// and the Equation 1 worst-case drop at δ = 43.75 ns.
type Fig6Point struct {
	Flow          apps.FlowType
	HitsPerSec    float64
	WorstCaseDrop float64
}

// Fig6Curve is one δ value's bound curve.
type Fig6Curve struct {
	DeltaSeconds float64
	HitsPerSec   []float64
	Drop         []float64
}

// Fig6Result reproduces Figure 6: the estimated maximum performance drop
// (Equation 1 with κ = 1) as a function of solo-run cache hits/sec, for
// three values of δ, with the measured flows overlaid as points.
type Fig6Result struct {
	Curves []Fig6Curve
	Points []Fig6Point
}

// Fig6Deltas are the paper's three δ values.
var Fig6Deltas = []float64{30e-9, core.DeltaSeconds, 60e-9}

// RunFig6 evaluates the bound curves and measures the flows' solo
// hits/sec.
func RunFig6(p *core.Predictor) (*Fig6Result, error) {
	out := &Fig6Result{}
	for _, delta := range Fig6Deltas {
		curve := Fig6Curve{DeltaSeconds: delta}
		for h := 0.0; h <= 60e6; h += 2e6 {
			curve.HitsPerSec = append(curve.HitsPerSec, h)
			curve.Drop = append(curve.Drop, core.WorstCaseDrop(h, delta))
		}
		out.Curves = append(out.Curves, curve)
	}
	for _, t := range apps.RealisticTypes {
		solo, err := p.Solo(t)
		if err != nil {
			return nil, err
		}
		h := solo.L3HitsPerSec()
		out.Points = append(out.Points, Fig6Point{
			Flow:          t,
			HitsPerSec:    h,
			WorstCaseDrop: core.WorstCaseDrop(h, core.DeltaSeconds),
		})
	}
	return out, nil
}

// Table lists each δ curve's samples (δ in ns), then the measured flows
// at the paper's δ.
func (r *Fig6Result) Table() *table.Table {
	t := table.New(fmt.Sprintf("Figure 6: worst-case drop (Eq. 1, κ=1) vs solo cache hits/sec; flows at δ=%.2fns", core.DeltaSeconds*1e9),
		"kind", "flow_or_delta_ns", "hits_per_sec", "worst_case_drop").
		Format(mrefs, "hits_per_sec").Format(pct, "worst_case_drop")
	for _, c := range r.Curves {
		for i := range c.HitsPerSec {
			t.Add("curve", fmt.Sprintf("%.2f", c.DeltaSeconds*1e9), c.HitsPerSec[i], c.Drop[i])
		}
	}
	for _, pt := range r.Points {
		t.Add("point", pt.Flow, pt.HitsPerSec, pt.WorstCaseDrop)
	}
	return t
}
