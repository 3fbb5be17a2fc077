package exp

import (
	"fmt"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
)

// Fig2Cell is one experiment of Figure 2: a target flow co-running with 5
// competitors of one type.
type Fig2Cell struct {
	Target              apps.FlowType
	Competitor          apps.FlowType
	Drop                float64
	CompetingRefsPerSec float64 // measured during the co-run
}

// Fig2Result reproduces Figure 2: for every ordered pair of realistic
// flow types (X, Y), the performance drop X suffers when co-running with
// 5 flows of type Y, plus the per-target averages of Figure 2(b).
type Fig2Result struct {
	Cells   []Fig2Cell
	Average map[apps.FlowType]float64
}

// RunFig2 runs all 25 pairs using p's memoised measurements.
func RunFig2(p *core.Predictor) (*Fig2Result, error) {
	out := &Fig2Result{Average: make(map[apps.FlowType]float64)}
	for _, target := range apps.RealisticTypes {
		var sum float64
		for _, comp := range apps.RealisticTypes {
			cell, err := measurePair(p, target, comp)
			if err != nil {
				return nil, fmt.Errorf("exp: fig2 %s vs %s: %w", target, comp, err)
			}
			out.Cells = append(out.Cells, cell)
			sum += cell.Drop
		}
		out.Average[target] = sum / float64(len(apps.RealisticTypes))
	}
	return out, nil
}

// RunFig2Pair measures a single Figure 2 cell: the drop of target
// co-running with 5 flows of type comp. It is exported for the ablation
// benchmarks, which re-measure one cell under modified hardware models.
func RunFig2Pair(p *core.Predictor, target, comp apps.FlowType) (Fig2Cell, error) {
	return measurePair(p, target, comp)
}

// measurePair measures the drop of target co-running with 5 flows of
// type comp, and the competitors' aggregate refs/sec.
func measurePair(p *core.Predictor, target, comp apps.FlowType) (Fig2Cell, error) {
	mix := []apps.FlowType{target, comp, comp, comp, comp, comp}
	stats, sorted, err := p.MeasureMix(mix)
	if err != nil {
		return Fig2Cell{}, err
	}
	solo, err := p.Solo(target)
	if err != nil {
		return Fig2Cell{}, err
	}
	idx := targetIndex(sorted, target, comp)
	var competing float64
	for i := range stats {
		if i != idx {
			competing += stats[i].L3RefsPerSec()
		}
	}
	return Fig2Cell{
		Target:              target,
		Competitor:          comp,
		Drop:                hw.PerformanceDrop(solo, stats[idx]),
		CompetingRefsPerSec: competing,
	}, nil
}

// targetIndex locates the single target flow in the sorted mix. When the
// target and competitor types coincide, all slots are equivalent.
func targetIndex(sorted []apps.FlowType, target, comp apps.FlowType) int {
	if target == comp {
		return 0
	}
	for i, t := range sorted {
		if t == target {
			return i
		}
	}
	return 0
}

// Cell returns the (target, competitor) measurement.
func (r *Fig2Result) Cell(target, comp apps.FlowType) (Fig2Cell, bool) {
	for _, c := range r.Cells {
		if c.Target == target && c.Competitor == comp {
			return c, true
		}
	}
	return Fig2Cell{}, false
}

// MaxDrop returns the largest drop in the matrix.
func (r *Fig2Result) MaxDrop() Fig2Cell {
	var max Fig2Cell
	for _, c := range r.Cells {
		if c.Drop > max.Drop {
			max = c
		}
	}
	return max
}

// String renders Figure 2(a) as a matrix and 2(b) as a row of averages.
func (r *Fig2Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 2(a): performance drop of target (rows) with 5 co-runners of type (columns)\n")
	matrix(&b, func(target, comp apps.FlowType) string {
		c, _ := r.Cell(target, comp)
		return pct(c.Drop)
	})
	b.WriteString("Figure 2(b): average drop per target type\n")
	for _, target := range apps.RealisticTypes {
		fmt.Fprintf(&b, "%-8s %s\n", target, pct(r.Average[target]))
	}
	return b.String()
}

// CSV renders all cells.
func (r *Fig2Result) CSV() string {
	var c csvBuilder
	c.row("target", "competitor", "drop", "competing_refs_per_sec")
	for _, cell := range r.Cells {
		c.row(string(cell.Target), string(cell.Competitor), cell.Drop, cell.CompetingRefsPerSec)
	}
	return c.String()
}
