package exp

import (
	"fmt"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
	"pktpredict/internal/table"
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
	n := len(apps.RealisticTypes)
	out := &Fig2Result{Cells: make([]Fig2Cell, n*n), Average: make(map[apps.FlowType]float64)}
	if err := core.FanOut(n*n, func(i int) (err error) {
		target, comp := apps.RealisticTypes[i/n], apps.RealisticTypes[i%n]
		if out.Cells[i], err = RunFig2Pair(p, target, comp); err != nil {
			return fmt.Errorf("exp: fig2 %s vs %s: %w", target, comp, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, target := range apps.RealisticTypes {
		var sum float64
		for _, cell := range out.Cells[i*n : (i+1)*n] {
			sum += cell.Drop
		}
		out.Average[target] = sum / float64(n)
	}
	return out, nil
}

// RunFig2Pair measures one Figure 2 cell: the drop of target co-running
// with 5 flows of type comp, and the competitors' aggregate refs/sec. The
// ablation benchmarks re-measure one cell under modified hardware models.
func RunFig2Pair(p *core.Predictor, target, comp apps.FlowType) (Fig2Cell, error) {
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

// Table lists every cell of Figure 2(a); a note carries 2(b)'s averages.
func (r *Fig2Result) Table() *table.Table {
	t := table.New("Figure 2(a): performance drop of target with 5 co-runners of type competitor",
		"target", "competitor", "drop", "competing_refs_per_sec").
		Format(pct, "drop").Format(mrefs, "competing_refs_per_sec")
	for _, c := range r.Cells {
		t.Add(c.Target, c.Competitor, c.Drop, c.CompetingRefsPerSec)
	}
	avg := make([]string, len(apps.RealisticTypes))
	for i, target := range apps.RealisticTypes {
		avg[i] = fmt.Sprintf("%s %s", target, pct(r.Average[target]))
	}
	t.Note("Figure 2(b): average drop per target: %s", strings.Join(avg, ", "))
	return t
}
