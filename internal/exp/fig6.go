package exp

import (
	"fmt"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
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

// String renders the bound at the measured points and curve samples.
func (r *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: worst-case drop (Eq. 1, κ=1) vs solo cache hits/sec\n")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "  δ=%.2fns:", c.DeltaSeconds*1e9)
		for i := 0; i < len(c.HitsPerSec); i += 5 {
			fmt.Fprintf(&b, " (%s,%s)", mrefs(c.HitsPerSec[i]), pct(c.Drop[i]))
		}
		b.WriteByte('\n')
	}
	b.WriteString("  measured flows (δ=43.75ns):\n")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "    %-8s hits/sec=%s worst-case drop=%s\n",
			pt.Flow, mrefs(pt.HitsPerSec), pct(pt.WorstCaseDrop))
	}
	return b.String()
}

// CSV renders curves and points.
func (r *Fig6Result) CSV() string {
	var c csvBuilder
	c.row("kind", "flow_or_delta_ns", "hits_per_sec", "worst_case_drop")
	for _, cv := range r.Curves {
		for i := range cv.HitsPerSec {
			c.row("curve", fmt.Sprintf("%.2f", cv.DeltaSeconds*1e9), cv.HitsPerSec[i], cv.Drop[i])
		}
	}
	for _, pt := range r.Points {
		c.row("point", string(pt.Flow), pt.HitsPerSec, pt.WorstCaseDrop)
	}
	return c.String()
}
