package exp

import (
	"fmt"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
)

// Fig9Flow is one flow of the mixed workload with its measured and
// predicted drop.
type Fig9Flow struct {
	Type      apps.FlowType
	Measured  float64
	Predicted float64
}

// AbsError returns |predicted − measured|.
func (f Fig9Flow) AbsError() float64 { return abs(f.Predicted - f.Measured) }

// Fig9Mix is the paper's mixed workload per processor: 2 MON, 2 VPN,
// 1 FW, 1 RE.
var Fig9Mix = []apps.FlowType{apps.MON, apps.MON, apps.VPN, apps.VPN, apps.FW, apps.RE}

// Fig9Result reproduces Figure 9: measured versus predicted drop for each
// flow of the mixed workload.
type Fig9Result struct {
	Flows    []Fig9Flow
	MaxError float64
}

// RunFig9 measures and predicts the mixed workload.
func RunFig9(s Scale, p *core.Predictor) (*Fig9Result, error) {
	measured, sorted, err := p.MeasuredDrops(Fig9Mix)
	if err != nil {
		return nil, fmt.Errorf("exp: fig9 measure: %w", err)
	}
	predicted, _, err := p.PredictMix(Fig9Mix)
	if err != nil {
		return nil, fmt.Errorf("exp: fig9 predict: %w", err)
	}
	out := &Fig9Result{}
	for i, t := range sorted {
		f := Fig9Flow{Type: t, Measured: measured[i], Predicted: predicted[i].Drop}
		out.Flows = append(out.Flows, f)
		if f.AbsError() > out.MaxError {
			out.MaxError = f.AbsError()
		}
	}
	return out, nil
}

// String renders per-flow measured/predicted/error rows.
func (r *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: mixed workload (2 MON, 2 VPN, 1 FW, 1 RE per processor)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "flow", "measured", "predicted", "|error|")
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "%-8s %10s %10s %10.2f\n",
			f.Type, pct(f.Measured), pct(f.Predicted), f.AbsError()*100)
	}
	fmt.Fprintf(&b, "max |error|: %.2f%%\n", r.MaxError*100)
	return b.String()
}

// CSV renders per-flow rows.
func (r *Fig9Result) CSV() string {
	var c csvBuilder
	c.row("flow", "measured", "predicted", "abs_error")
	for _, f := range r.Flows {
		c.row(string(f.Type), f.Measured, f.Predicted, f.AbsError())
	}
	return c.String()
}
