package exp

import (
	"fmt"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/flowtab"
	"pktpredict/internal/hw"
	"pktpredict/internal/table"
)

// Fig7Funcs are the MON-flow functions the paper breaks conversion down
// by (its OProfile symbols).
var Fig7Funcs = []string{"flow_statistics", "radix_ip_lookup", "check_ip_header", "skb_recycle"}

// Fig7Point is one competition level's conversion measurement.
type Fig7Point struct {
	CompetingRefsPerSec float64
	// Measured is the flow-wide hit-to-miss conversion rate: the fraction
	// of solo-run hits per packet that became misses.
	Measured float64
	// PerFunc maps each profiled function to its conversion rate.
	PerFunc map[string]float64
	// Model is the Appendix A estimate at this competition level.
	Model float64
}

// Fig7Result reproduces Figure 7: measured and estimated hit-to-miss
// conversion of a MON flow versus competing refs/sec, with per-function
// breakdown.
type Fig7Result struct {
	Target apps.FlowType
	Points []Fig7Point
}

// RunFig7 derives conversion rates from the MON sweep and evaluates the
// Appendix A model with the paper's parameters: C = cache lines, Ht =
// solo hits/sec, W = the flow table's slot count (the structure the model
// describes exactly, as the paper notes for flow_statistics).
func RunFig7(p *core.Predictor) (*Fig7Result, error) {
	target := apps.MON
	solo, err := p.Solo(target)
	if err != nil {
		return nil, err
	}
	samples, err := p.Sweep(target)
	if err != nil {
		return nil, err
	}

	model := core.CacheModel{
		CacheLines:       float64(p.Cfg.L3.SizeBytes / hw.LineSize),
		TargetHitsPerSec: solo.L3HitsPerSec(),
		TargetChunks:     float64(flowtab.Size(p.Params.NetFlowEntries)),
	}

	soloHPP := solo.L3HitsPerPacket()
	soloFunc := funcHitsPerPacket(solo)

	out := &Fig7Result{Target: target}
	for _, sample := range samples {
		pt := Fig7Point{
			CompetingRefsPerSec: sample.CompetingRefsPerSec,
			Measured:            conversion(soloHPP, sample.Target.L3HitsPerPacket()),
			PerFunc:             make(map[string]float64),
			Model:               model.ConversionRate(sample.CompetingRefsPerSec),
		}
		coFunc := funcHitsPerPacket(sample.Target)
		for _, fn := range Fig7Funcs {
			pt.PerFunc[fn] = conversion(soloFunc[fn], coFunc[fn])
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// conversion computes the hit-to-miss conversion rate from solo and
// contended hits per packet.
func conversion(solo, contended float64) float64 {
	if solo <= 0 {
		return 0
	}
	k := 1 - contended/solo
	if k < 0 {
		return 0
	}
	return k
}

// funcHitsPerPacket extracts per-function L3 hits per packet.
func funcHitsPerPacket(st hw.FlowStats) map[string]float64 {
	out := make(map[string]float64)
	if st.Raw.Packets == 0 {
		return out
	}
	for _, fs := range st.FuncBreakdown() {
		out[fs.Name] = float64(fs.L3Hits) / float64(st.Raw.Packets)
	}
	return out
}

// Table lists the conversion at each competition level, flow-wide, by
// the model and per function.
func (r *Fig7Result) Table() *table.Table {
	cols := append([]string{"competing_refs_per_sec", "measured", "model"}, Fig7Funcs...)
	t := table.New(fmt.Sprintf("Figure 7: hit-to-miss conversion of a %s flow vs competing refs/sec", r.Target), cols...).
		Format(mrefs, cols[0]).Format(pct, cols[1:]...)
	for _, pt := range r.Points {
		row := []any{pt.CompetingRefsPerSec, pt.Measured, pt.Model}
		for _, fn := range Fig7Funcs {
			row = append(row, pt.PerFunc[fn])
		}
		t.Add(row...)
	}
	return t
}
