package exp

import (
	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/table"
)

// Fig4Series is one target flow type's ramp under one contention mode.
type Fig4Series struct {
	Target apps.FlowType
	Mode   core.ContentionMode
	Points []core.CurvePoint
}

// Fig4Result reproduces Figure 4: for each contention mode and target
// type, the drop as a function of competing SYN references per second.
type Fig4Result struct {
	Series []Fig4Series
}

// RunFig4 reads the given targets' (nil = all realistic types) curves
// under all three modes, the Both series being the profiling curve; each
// series is its curve without the (0,0) origin.
func RunFig4(p *core.Predictor, targets []apps.FlowType) (*Fig4Result, error) {
	if targets == nil {
		targets = apps.RealisticTypes
	}
	out := &Fig4Result{}
	for _, mode := range core.Modes {
		for _, target := range targets {
			curve, err := p.CurveUnder(target, mode)
			if err != nil {
				return nil, err
			}
			out.Series = append(out.Series, Fig4Series{Target: target, Mode: mode, Points: curve.Points[1:]})
		}
	}
	return out, nil
}

// Get returns the series for (target, mode).
func (r *Fig4Result) Get(target apps.FlowType, mode core.ContentionMode) (Fig4Series, bool) {
	for _, s := range r.Series {
		if s.Target == target && s.Mode == mode {
			return s, true
		}
	}
	return Fig4Series{}, false
}

// MaxDrop returns the largest drop in a series.
func (s Fig4Series) MaxDrop() float64 {
	var m float64
	for _, pt := range s.Points {
		m = max(m, pt.Drop)
	}
	return m
}

// Table lists every point of every series.
func (r *Fig4Result) Table() *table.Table {
	t := table.New("Figure 4: drop vs competing refs/sec under cache, memctrl and both contention",
		"mode", "target", "competing_refs_per_sec", "drop").
		Format(mrefs, "competing_refs_per_sec").Format(pct, "drop")
	for _, s := range r.Series {
		for _, pt := range s.Points {
			t.Add(s.Mode, s.Target, pt.CompetingRefsPerSec, pt.Drop)
		}
	}
	return t
}
