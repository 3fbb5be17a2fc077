package runtime

import (
	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
)

// ProfileFlows runs the paper's offline profiling for the given flow
// types on the deterministic engine: a solo run per type (Table 1) and a
// SYN competition sweep per type (the drop-versus-competition curve).
// The result plugs straight into Config.Profiles, giving the runtime its
// admission limits, drop baselines, and prediction curves — the exact
// artefacts an operator would ship from a profiling testbed to
// production.
func ProfileFlows(cfg hw.Config, params apps.Params, warmup, window float64, grid []int, types []apps.FlowType) (map[apps.FlowType]FlowProfile, error) {
	p := core.NewPredictor(cfg, params, warmup, window)
	if len(grid) > 0 {
		p.SweepGrid = grid
	}
	out := make(map[apps.FlowType]FlowProfile, len(types))
	for _, t := range types {
		if _, done := out[t]; done {
			continue
		}
		solo, err := p.Solo(t)
		if err != nil {
			return nil, err
		}
		curve, err := p.Curve(t)
		if err != nil {
			return nil, err
		}
		prof := FlowProfile{
			SoloPPS:        solo.Throughput(),
			SoloRefsPerSec: solo.L3RefsPerSec(),
			Curve:          curve,
		}
		if !t.Synthetic() {
			// Per-element baselines come from a brief solo run on the
			// runtime itself rather than the engine: the runtime's build
			// path (graph surgery, receive rings, recycling) is the one
			// the live tables will measure, so node names and overhead
			// attribution match exactly.
			elems, err := soloElementBaselines(cfg, params, t, warmup, window)
			if err != nil {
				return nil, err
			}
			prof.Elements = elems
		}
		out[t] = prof
	}
	return out, nil
}

// soloElementBaselines measures one flow type's per-element per-packet
// costs with a single saturated replica and no co-runners — the offline
// side of online drift detection.
func soloElementBaselines(cfg hw.Config, params apps.Params, t apps.FlowType, warmup, window float64) (map[string]ElemBaseline, error) {
	rt, err := NewRuntime(Config{
		Cfg:    cfg,
		Params: params,
		Apps:   []AppSpec{{Name: "solo", Type: t, Workers: 1}},
		Warmup: warmup,
	})
	if err != nil {
		return nil, err
	}
	if _, err := rt.Run(window); err != nil {
		return nil, err
	}
	return rt.ElementBaselines(), nil
}

// ElementBaselines aggregates per-element costs since measurement start
// across every flow of the runtime, per packet entering a flow. Call it
// after Run returns (no workers are writing the tables then). It is
// meant for single-type profiling runs; a mixed runtime folds all apps'
// same-named elements together.
func (r *Runtime) ElementBaselines() map[string]ElemBaseline {
	totals := map[string]hw.ElemCell{}
	r.stageElems(func(u *stage) []hw.ElemCell { return u.baseElems }, func(_ *flow, _ *stage, element string, d hw.ElemCell) {
		c := totals[element]
		c.Cycles += d.Cycles
		c.L3Refs += d.L3Refs
		c.L3Hits += d.L3Hits
		c.L3Misses += d.L3Misses
		totals[element] = c
	})
	var pkts uint64
	for _, f := range r.flows {
		if f.pipe != nil {
			pkts += f.packets
		}
	}
	if pkts == 0 {
		return nil
	}
	out := make(map[string]ElemBaseline, len(totals))
	for name, c := range totals {
		out[name] = ElemBaseline{
			CyclesPerPacket: float64(c.Cycles) / float64(pkts),
			RefsPerPacket:   float64(c.L3Refs) / float64(pkts),
		}
	}
	return out
}
