package exp

import (
	"fmt"
	"math"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/table"
)

// Fig9Flow is one flow of the mixed workload with its measured and
// predicted drop, and the competition the prediction assumed (the other
// flows' solo refs/sec).
type Fig9Flow struct {
	Type                apps.FlowType
	Measured            float64
	Predicted           float64
	CompetingRefsPerSec float64
}

// AbsError returns |predicted − measured|.
func (f Fig9Flow) AbsError() float64 { return math.Abs(f.Predicted - f.Measured) }

// Fig9Mix is the paper's mixed workload per processor: 2 MON, 2 VPN,
// 1 FW, 1 RE.
var Fig9Mix = []apps.FlowType{apps.MON, apps.MON, apps.VPN, apps.VPN, apps.FW, apps.RE}

// Fig9Result reproduces Figure 9: measured versus predicted drop for each
// flow of a mix sharing one socket.
type Fig9Result struct {
	Mix      []apps.FlowType
	Flows    []Fig9Flow
	MaxError float64
}

// RunFig9 predicts the mix's drops from solo profiles, then co-runs it
// and measures them: the paper's Section 4 method and its check. A nil
// mix is Fig9Mix.
func RunFig9(p *core.Predictor, mix []apps.FlowType) (*Fig9Result, error) {
	if mix == nil {
		mix = Fig9Mix
	}
	measured, sorted, err := p.MeasuredDrops(mix)
	if err != nil {
		return nil, fmt.Errorf("exp: fig9 measure: %w", err)
	}
	predicted, _, err := p.PredictMix(mix)
	if err != nil {
		return nil, fmt.Errorf("exp: fig9 predict: %w", err)
	}
	out := &Fig9Result{Mix: mix}
	for i, t := range sorted {
		f := Fig9Flow{Type: t, Measured: measured[i], Predicted: predicted[i].Drop,
			CompetingRefsPerSec: predicted[i].CompetingRefsPerSec}
		out.Flows = append(out.Flows, f)
		out.MaxError = max(out.MaxError, f.AbsError())
	}
	return out, nil
}

// Table lists each flow's measured and predicted drop; the notes carry
// the competition each prediction assumed and the worst error.
func (r *Fig9Result) Table() *table.Table {
	t := table.New(fmt.Sprintf("Figure 9: mixed workload (%s per processor)", countLabel(r.Mix)),
		"flow", "measured", "predicted", "abs_error").
		Format(pct, "measured", "predicted").
		Format(func(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }, "abs_error")
	competition := make([]string, len(r.Flows))
	for i, f := range r.Flows {
		t.Add(f.Type, f.Measured, f.Predicted, f.AbsError())
		competition[i] = fmt.Sprintf("%s %s", f.Type, mrefs(f.CompetingRefsPerSec))
	}
	t.Note("assumed competition (the other flows' solo refs/sec): %s", strings.Join(competition, ", "))
	t.Note("max |error|: %.2f%%", r.MaxError*100)
	return t
}
