package runtime

import (
	"fmt"
	"slices"

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
// production. The types' experiments run concurrently, as many as
// core.Experiment admits; profiles and error are the serial order's.
func ProfileFlows(cfg hw.Config, params apps.Params, warmup, window float64, grid []int, types []apps.FlowType) (map[apps.FlowType]FlowProfile, error) {
	p := core.NewPredictor(cfg, params, warmup, window)
	if len(grid) > 0 {
		p.SweepGrid = grid
	}
	var uniq []apps.FlowType // a type listed twice is profiled once
	for _, t := range types {
		if !slices.Contains(uniq, t) {
			uniq = append(uniq, t)
		}
	}
	// Two tasks per type: the engine's solo run and sweep, then the
	// runtime's element baselines.
	profs := make([]FlowProfile, len(uniq))
	err := core.FanOut(2*len(uniq), func(i int) (err error) {
		t, prof := uniq[i/2], &profs[i/2]
		if i%2 == 0 {
			prof.Curve, err = p.Curve(t)
		} else if !t.Synthetic() {
			prof.Elements, err = soloElementBaselines(cfg, params, t, warmup, window)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[apps.FlowType]FlowProfile, len(uniq))
	for i, t := range uniq {
		solo, _ := p.Solo(t) // memoised: Curve measured it
		profs[i].SoloPPS, profs[i].SoloRefsPerSec = solo.Throughput(), solo.L3RefsPerSec()
		out[t] = profs[i]
	}
	return out, nil
}

// soloElementBaselines measures one flow type's per-element per-packet
// costs with a single saturated replica and no co-runners — the offline
// side of online drift detection. They come from a brief solo run on the
// runtime itself rather than the engine: the runtime's build path (graph
// surgery, receive rings, recycling) is the one the live tables will
// measure, so node names and overhead attribution match exactly. The run
// is one leaf experiment and holds an experiment slot like the engine's.
func soloElementBaselines(cfg hw.Config, params apps.Params, t apps.FlowType, warmup, window float64) (map[string]ElemBaseline, error) {
	return core.Experiment(func() (map[string]ElemBaseline, error) {
		rt, err := NewRuntime(Config{
			Cfg:    cfg,
			Params: params,
			Apps:   []AppSpec{{Name: "solo", Type: t, Workers: 1}},
			Warmup: warmup,
		})
		if err == nil {
			_, err = rt.Run(window)
		}
		if err != nil {
			return nil, fmt.Errorf("runtime: element baselines of %s: %w", t, err)
		}
		return rt.ElementBaselines(), nil
	})
}

// ElementBaselines aggregates per-element costs since measurement start
// across every flow of the runtime, per packet entering a flow. Call it
// after Run returns (no workers are writing the tables then). It is
// meant for single-type profiling runs; a mixed runtime folds all apps'
// same-named elements together.
func (r *Runtime) ElementBaselines() map[string]ElemBaseline {
	tot, totals := r.total(), map[string]hw.ElemCost{}
	var pkts uint64
	for _, f := range r.flows {
		if f.pipe == nil {
			continue
		}
		fd := &tot.flows[f.id]
		pkts += fd.packets
		for _, sd := range fd.stages {
			for i, d := range sd.elems {
				name := f.elemName(i)
				c := totals[name]
				c.Cycles += d.Cycles
				c.L3Refs += d.L3Refs
				totals[name] = c
			}
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
