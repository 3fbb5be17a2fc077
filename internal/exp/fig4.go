package exp

import (
	"fmt"
	"sort"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
	"pktpredict/internal/table"
)

// ContentionMode selects which shared resource the competitors contend
// for, reproducing the three configurations of Figure 3.
type ContentionMode string

const (
	// CacheOnly: competitors run on the target's socket but their data is
	// homed in the remote domain, so they share only the L3 (Fig. 3(a)).
	CacheOnly ContentionMode = "cache"
	// MemCtrlOnly: competitors run on the other socket with data homed in
	// the target's domain, so they share only the target's memory
	// controller (Fig. 3(b)).
	MemCtrlOnly ContentionMode = "memctrl"
	// Both: competitors run on the target's socket with local data,
	// sharing the L3 and the controller (Fig. 3(c)) — the deployment
	// configuration.
	Both ContentionMode = "both"
)

// Modes lists the three configurations in the paper's order.
var Modes = []ContentionMode{CacheOnly, MemCtrlOnly, Both}

// Fig4Point is one measurement of a ramp: drop at a competition level.
type Fig4Point struct {
	CompetingRefsPerSec float64
	Drop                float64
}

// Fig4Series is one target flow type's ramp under one contention mode.
type Fig4Series struct {
	Target apps.FlowType
	Mode   ContentionMode
	Points []Fig4Point
}

// Fig4Result reproduces Figure 4: for each contention mode and target
// type, the drop as a function of competing SYN references per second.
type Fig4Result struct {
	Series []Fig4Series
}

// RunFig4 measures the given targets (nil = all realistic types) under
// all three modes.
func RunFig4(p *core.Predictor, targets []apps.FlowType) (*Fig4Result, error) {
	if targets == nil {
		targets = apps.RealisticTypes
	}
	out := &Fig4Result{}
	for _, mode := range Modes {
		for _, target := range targets {
			series, err := runFig4Series(p, target, mode)
			if err != nil {
				return nil, err
			}
			out.Series = append(out.Series, series)
		}
	}
	return out, nil
}

func runFig4Series(p *core.Predictor, target apps.FlowType, mode ContentionMode) (Fig4Series, error) {
	solo, err := p.Solo(target)
	if err != nil {
		return Fig4Series{}, err
	}
	series := Fig4Series{Target: target, Mode: mode}
	n := p.Cfg.CoresPerSocket - 1
	for _, k := range p.SweepGrid {
		flows := []core.FlowSpec{{Type: target, Core: 0, Domain: 0, Seed: core.SeedFor(target, 0)}}
		for i := 1; i <= n; i++ {
			f := core.FlowSpec{Type: apps.SYN, Seed: core.SeedFor(apps.SYN, i), SynCompute: k}
			switch mode {
			case CacheOnly:
				f.Core, f.Domain = i, 1
			case MemCtrlOnly:
				f.Core, f.Domain = p.Cfg.CoresPerSocket+i-1, 0
			case Both:
				f.Core, f.Domain = i, 0
			}
			flows = append(flows, f)
		}
		res, err := core.Scenario{Cfg: p.Cfg, Params: p.Params, Flows: flows,
			Warmup: p.Warmup, Window: p.Window}.Run()
		if err != nil {
			return Fig4Series{}, fmt.Errorf("exp: fig4 %s/%s: %w", target, mode, err)
		}
		var competing float64
		for i := 1; i <= n; i++ {
			competing += res.Stats[i].L3RefsPerSec()
		}
		series.Points = append(series.Points, Fig4Point{
			CompetingRefsPerSec: competing,
			Drop:                hw.PerformanceDrop(solo, res.Stats[0]),
		})
	}
	sort.Slice(series.Points, func(i, j int) bool {
		return series.Points[i].CompetingRefsPerSec < series.Points[j].CompetingRefsPerSec
	})
	return series, nil
}

// Get returns the series for (target, mode).
func (r *Fig4Result) Get(target apps.FlowType, mode ContentionMode) (Fig4Series, bool) {
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
