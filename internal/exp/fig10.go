package exp

import (
	"fmt"
	"slices"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/table"
)

// Fig10Combo is one flow combination's best/worst placement evaluation.
type Fig10Combo struct {
	Label string
	Flows []apps.FlowType
	Eval  core.PlacementEval
}

// Fig10Result reproduces Figure 10: for each flow combination, the
// average per-flow drop under the worst and best flow-to-core placement;
// plus the per-flow detail of the first combination (10(b)), 6-MON/6-FW
// in DefaultCombos.
type Fig10Result struct {
	Combos []Fig10Combo
}

// DefaultCombos returns the flow combinations evaluated by RunFig10. The
// 6-MON/6-FW mix is the paper's highlighted case (an equal mix of the
// most and least sensitive/aggressive types); the rest cover the other
// pairings plus mixed and adversarial combinations.
func DefaultCombos() []Fig10Combo {
	rep := func(t apps.FlowType, n int) []apps.FlowType { return slices.Repeat([]apps.FlowType{t}, n) }
	cat := slices.Concat[[]apps.FlowType]
	return []Fig10Combo{
		{Label: "6MON+6FW", Flows: cat(rep(apps.MON, 6), rep(apps.FW, 6))},
		{Label: "6MON+6RE", Flows: cat(rep(apps.MON, 6), rep(apps.RE, 6))},
		{Label: "6IP+6FW", Flows: cat(rep(apps.IP, 6), rep(apps.FW, 6))},
		{Label: "6MON+6VPN", Flows: cat(rep(apps.MON, 6), rep(apps.VPN, 6))},
		{Label: "4MON+4FW+4RE", Flows: cat(rep(apps.MON, 4), rep(apps.FW, 4), rep(apps.RE, 4))},
		{Label: "2xEach+2MON", Flows: cat(rep(apps.IP, 2), rep(apps.MON, 4), rep(apps.FW, 2), rep(apps.RE, 2), rep(apps.VPN, 2))},
		{Label: "6SYNMAX+6FW", Flows: cat(rep(apps.SYNMAX, 6), rep(apps.FW, 6))},
	}
}

// RunFig10 evaluates the given combos (nil = DefaultCombos); a combo
// without a label is labelled with its type counts.
func RunFig10(p *core.Predictor, combos []Fig10Combo) (*Fig10Result, error) {
	if combos == nil {
		combos = DefaultCombos()
	}
	out := &Fig10Result{}
	for _, combo := range combos {
		if combo.Label == "" {
			combo.Label = countLabel(combo.Flows)
		}
		eval, err := core.EvaluatePlacements(p, combo.Flows)
		if err != nil {
			return nil, fmt.Errorf("exp: fig10 %s: %w", combo.Label, err)
		}
		combo.Eval = eval
		out.Combos = append(out.Combos, combo)
	}
	return out, nil
}

// MaxGain returns the largest best-to-worst gap among the combos with
// (synthetic) or without adversarial SYN flows — the paper reports 6% and
// 2% — and whether any such combo was evaluated.
func (r *Fig10Result) MaxGain(synthetic bool) (gain float64, ok bool) {
	for _, c := range r.Combos {
		if slices.ContainsFunc(c.Flows, apps.FlowType.Synthetic) == synthetic {
			gain, ok = max(gain, c.Eval.Gain), true
		}
	}
	return gain, ok
}

// Table lists every placement of every combo, best first; the notes carry
// each combo's best, worst and gain (10(a)), the largest gain of each kind
// of combo evaluated, and the first combo's per-flow drops under its best
// and worst placement (10(b)).
func (r *Fig10Result) Table() *table.Table {
	t := table.New("Figure 10: average drop of every distinct placement, best first",
		"combination", "placement", "socket0", "socket1", "avg_drop").Format(pct, "avg_drop")
	for _, c := range r.Combos {
		for i, pl := range c.Eval.All {
			t.Add(c.Label, i, joinLabel(pl.Socket0), joinLabel(pl.Socket1), pl.AvgDrop)
		}
		t.Note("Figure 10(a) %s: %d distinct placements, best %s, worst %s, gain %s",
			c.Label, len(c.Eval.All), pct(c.Eval.Best.AvgDrop), pct(c.Eval.Worst.AvgDrop), pct(c.Eval.Gain))
	}
	var gains []string
	for _, kind := range []string{"realistic", "synthetic"} {
		if g, ok := r.MaxGain(kind == "synthetic"); ok {
			gains = append(gains, kind+" "+pct(g))
		}
	}
	if gains != nil {
		t.Note("max gain: %s", strings.Join(gains, ", "))
	}
	if len(r.Combos) > 0 {
		c := r.Combos[0]
		for i, pl := range []core.Placement{c.Eval.Best, c.Eval.Worst} {
			flows := make([]string, len(pl.PerFlow))
			for j, fd := range pl.PerFlow {
				flows[j] = fmt.Sprintf("socket%d %s %s", fd.Socket, fd.Type, pct(fd.Drop))
			}
			t.Note("Figure 10(b) %s, %s placement: %s", c.Label, []string{"best", "worst"}[i], strings.Join(flows, ", "))
		}
	}
	return t
}

func joinLabel(ts []apps.FlowType) string {
	s := make([]string, len(ts))
	for i, t := range ts {
		s[i] = string(t)
	}
	return strings.Join(s, "+")
}
