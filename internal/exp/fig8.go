package exp

import (
	"fmt"
	"math"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/table"
)

// Fig8Cell is one scenario's prediction outcome.
type Fig8Cell struct {
	Target     apps.FlowType
	Competitor apps.FlowType
	Measured   float64
	Predicted  float64 // step-3 prediction (solo refs/sec of competitors)
	Perfect    float64 // prediction with measured competing refs/sec
}

// Error returns predicted − measured (signed, as in Figure 8(a)).
func (c Fig8Cell) Error() float64 { return c.Predicted - c.Measured }

// PerfectError returns the perfect-knowledge error (Figure 8(b)).
func (c Fig8Cell) PerfectError() float64 { return c.Perfect - c.Measured }

// Fig8Result reproduces Figure 8: prediction error over the 25 Figure 2
// scenarios, both for the paper's method and assuming perfect knowledge
// of the competition, plus per-target average absolute errors (8(c)).
type Fig8Result struct {
	Cells         []Fig8Cell
	AvgError      map[apps.FlowType]float64 // mean |error| per target
	AvgPerfectErr map[apps.FlowType]float64
	MaxAbsError   float64
	MaxAbsPerfErr float64
}

// RunFig8 predicts and measures every pair scenario.
func RunFig8(p *core.Predictor) (*Fig8Result, error) {
	out := &Fig8Result{
		AvgError:      make(map[apps.FlowType]float64),
		AvgPerfectErr: make(map[apps.FlowType]float64),
	}
	n := len(apps.RealisticTypes)
	out.Cells = make([]Fig8Cell, n*n)
	if err := core.FanOut(n*n, func(i int) (err error) {
		target, comp := apps.RealisticTypes[i/n], apps.RealisticTypes[i%n]
		if out.Cells[i], err = predictPair(p, target, comp); err != nil {
			return fmt.Errorf("exp: fig8 %s vs %s: %w", target, comp, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, target := range apps.RealisticTypes {
		var sumErr, sumPerf float64
		for _, cell := range out.Cells[i*n : (i+1)*n] {
			e, perf := math.Abs(cell.Error()), math.Abs(cell.PerfectError())
			sumErr += e
			sumPerf += perf
			out.MaxAbsError = max(out.MaxAbsError, e)
			out.MaxAbsPerfErr = max(out.MaxAbsPerfErr, perf)
		}
		out.AvgError[target] = sumErr / float64(n)
		out.AvgPerfectErr[target] = sumPerf / float64(n)
	}
	return out, nil
}

func predictPair(p *core.Predictor, target, comp apps.FlowType) (Fig8Cell, error) {
	// Measured drop and measured competition from the co-run.
	cell2, err := RunFig2Pair(p, target, comp)
	if err != nil {
		return Fig8Cell{}, err
	}
	// Step-3 prediction from solo profiles only.
	competitors := []apps.FlowType{comp, comp, comp, comp, comp}
	pred, err := p.Predict(target, competitors)
	if err != nil {
		return Fig8Cell{}, err
	}
	// Perfect-knowledge prediction from the measured competition.
	perfect, err := p.PredictAt(target, cell2.CompetingRefsPerSec)
	if err != nil {
		return Fig8Cell{}, err
	}
	return Fig8Cell{
		Target:     target,
		Competitor: comp,
		Measured:   cell2.Drop,
		Predicted:  pred.Drop,
		Perfect:    perfect.Drop,
	}, nil
}

// Table lists every scenario's measured and predicted drops; the notes
// carry 8(a) and 8(b)'s errors and 8(c)'s averages per target, and the worst.
func (r *Fig8Result) Table() *table.Table {
	t := table.New("Figure 8: measured vs predicted drop (solo-rate and perfect knowledge of the competition)",
		"target", "competitor", "measured", "predicted", "perfect").
		Format(pct, "measured", "predicted", "perfect")
	for _, c := range r.Cells {
		t.Add(c.Target, c.Competitor, c.Measured, c.Predicted, c.Perfect)
	}
	t.Note("Figure 8(a) ours, 8(b) perfect: predicted - measured in points vs 5x %v; 8(c): mean |error|", apps.RealisticTypes)
	for _, target := range apps.RealisticTypes {
		ours, perfect := "", ""
		for _, c := range r.Cells {
			if c.Target == target {
				ours += fmt.Sprintf(" %+.1f", c.Error()*100)
				perfect += fmt.Sprintf(" %+.1f", c.PerfectError()*100)
			}
		}
		t.Note("%s: ours%s, perfect%s; mean |error| ours %.2f, perfect %.2f", target, ours, perfect,
			r.AvgError[target]*100, r.AvgPerfectErr[target]*100)
	}
	t.Note("worst-case |error|: ours %s, perfect %s", pct(r.MaxAbsError), pct(r.MaxAbsPerfErr))
	return t
}
