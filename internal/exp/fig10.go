package exp

import (
	"fmt"
	"slices"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
)

// Fig10Combo is one flow combination's best/worst placement evaluation.
type Fig10Combo struct {
	Label string
	Flows []apps.FlowType
	Eval  core.PlacementEval
}

// Fig10Result reproduces Figure 10: for each flow combination, the
// average per-flow drop under the worst and best flow-to-core placement;
// plus the per-flow detail of the 6-MON/6-FW combination (10(b)).
type Fig10Result struct {
	Combos []Fig10Combo
	// MaxRealisticGain is the largest best-to-worst gap among combos of
	// realistic flows — the paper reports 2%.
	MaxRealisticGain float64
	// MaxSyntheticGain is the gap for the adversarial SYN_MAX combo —
	// the paper reports 6%.
	MaxSyntheticGain float64
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

		if slices.Contains(combo.Flows, apps.SYNMAX) || slices.Contains(combo.Flows, apps.SYN) {
			out.MaxSyntheticGain = max(out.MaxSyntheticGain, eval.Gain)
		} else {
			out.MaxRealisticGain = max(out.MaxRealisticGain, eval.Gain)
		}
	}
	return out, nil
}

// Combo returns the combo with the given label.
func (r *Fig10Result) Combo(label string) (Fig10Combo, bool) {
	for _, c := range r.Combos {
		if c.Label == label {
			return c, true
		}
	}
	return Fig10Combo{}, false
}

// String renders 10(a), every placement of every combo, and the
// 6MON+6FW per-flow detail (10(b)).
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10(a): average drop under best and worst placement\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %8s\n", "combination", "best", "worst", "gain")
	for _, c := range r.Combos {
		fmt.Fprintf(&b, "%-16s %10s %10s %8s\n", c.Label,
			pct(c.Eval.Best.AvgDrop), pct(c.Eval.Worst.AvgDrop), pct(c.Eval.Gain))
	}
	fmt.Fprintf(&b, "max gain: realistic %s, synthetic %s\n",
		pct(r.MaxRealisticGain), pct(r.MaxSyntheticGain))
	for _, c := range r.Combos {
		fmt.Fprintf(&b, "placements of %s (%d distinct, best first):\n", c.Label, len(c.Eval.All))
		for _, pl := range c.Eval.All {
			fmt.Fprintf(&b, "  %v\n", pl)
		}
	}
	if c, ok := r.Combo("6MON+6FW"); ok {
		b.WriteString("Figure 10(b): per-flow drop for 6MON+6FW\n")
		for i, pl := range []core.Placement{c.Eval.Best, c.Eval.Worst} {
			fmt.Fprintf(&b, "  %-5s %v:\n", []string{"best", "worst"}[i], pl)
			for _, fd := range pl.PerFlow {
				fmt.Fprintf(&b, "    socket%d %-8s %s\n", fd.Socket, fd.Type, pct(fd.Drop))
			}
		}
	}
	return b.String()
}

// CSV renders every placement of every combo.
func (r *Fig10Result) CSV() string {
	var c csvBuilder
	c.row("combination", "placement", "socket0", "socket1", "avg_drop")
	for _, combo := range r.Combos {
		for i, pl := range combo.Eval.All {
			c.row(combo.Label, i, joinLabel(pl.Socket0), joinLabel(pl.Socket1), pl.AvgDrop)
		}
	}
	return c.String()
}

func joinLabel(ts []apps.FlowType) string {
	s := make([]string, len(ts))
	for i, t := range ts {
		s[i] = string(t)
	}
	return strings.Join(s, "+")
}
