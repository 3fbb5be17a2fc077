package core

import (
	"fmt"
	"sort"

	"pktpredict/internal/apps"
)

// Placement assigns a full machine's worth of flows to the two sockets.
// Within a socket, core assignment is symmetric (all cores are
// equivalent), so a placement is fully described by the two multisets.
type Placement struct {
	Socket0 []apps.FlowType
	Socket1 []apps.FlowType
	// AvgDrop is the contention-induced drop averaged over all flows —
	// the paper's overall-performance metric for a placement.
	AvgDrop float64
	// PerFlow holds each flow's drop, ordered socket 0 then socket 1, in
	// each socket's sorted-multiset order.
	PerFlow []FlowDrop
}

// FlowDrop is one flow's drop under a placement.
type FlowDrop struct {
	Type   apps.FlowType
	Socket int
	Drop   float64
}

// PlacementEval is the outcome of exhaustively evaluating all distinct
// placements of a flow combination: the best and worst placements and the
// gain contention-aware scheduling could deliver (Figure 10).
type PlacementEval struct {
	Flows []apps.FlowType
	Best  Placement
	Worst Placement
	All   []Placement
	// Gain is Worst.AvgDrop − Best.AvgDrop: the maximum overall
	// improvement available to a contention-aware scheduler.
	Gain float64
}

// EvaluatePlacements simulates every distinct split of the given flows
// (one per core on the two-socket platform) and returns the best and
// worst placements by average drop. Socket evaluations are memoised by
// multiset through the predictor, since a socket's behaviour depends only
// on which flows share it (data is NUMA-local, so sockets are
// independent — the property Section 2.2's configuration establishes).
func EvaluatePlacements(p *Predictor, flows []apps.FlowType) (PlacementEval, error) {
	perSocket := p.Cfg.CoresPerSocket
	if len(flows) != 2*perSocket {
		return PlacementEval{}, fmt.Errorf("core: %d flows, want %d (one per core)",
			len(flows), 2*perSocket)
	}
	eval := PlacementEval{Flows: append([]apps.FlowType(nil), flows...)}

	// Measure every distinct socket mix at once; the loop below reads the
	// memo, so the result does not depend on completion order.
	splits := enumerateSplits(flows, perSocket)
	measured := make(map[string]bool)
	var mixes [][]apps.FlowType
	for _, split := range splits {
		for _, mix := range [][]apps.FlowType{split.s0, split.s1} {
			if k := mixKey(mix); !measured[k] {
				measured[k] = true
				mixes = append(mixes, mix)
			}
		}
	}
	if err := FanOut(len(mixes), func(i int) error {
		_, _, err := p.MeasuredDrops(mixes[i])
		return err
	}); err != nil {
		return PlacementEval{}, err
	}
	seen := make(map[string]bool)
	for _, split := range splits {
		k0, k1 := mixKey(split.s0), mixKey(split.s1)
		// Socket order is irrelevant: canonicalise the pair.
		pairKey := k0 + "|" + k1
		if k1 < k0 {
			pairKey = k1 + "|" + k0
		}
		if seen[pairKey] {
			continue
		}
		seen[pairKey] = true

		pl, err := EvaluateSplit(p, split.s0, split.s1)
		if err != nil {
			return PlacementEval{}, err
		}
		eval.All = append(eval.All, pl)
	}
	if len(eval.All) == 0 {
		return PlacementEval{}, fmt.Errorf("core: no placements enumerated")
	}
	sort.Slice(eval.All, func(i, j int) bool { return eval.All[i].AvgDrop < eval.All[j].AvgDrop })
	eval.Best = eval.All[0]
	eval.Worst = eval.All[len(eval.All)-1]
	eval.Gain = eval.Worst.AvgDrop - eval.Best.AvgDrop
	return eval, nil
}

type split struct {
	s0, s1 []apps.FlowType
}

// enumerateSplits generates every distinct division of the flow multiset
// into two halves of size k, by choosing how many of each type go to
// socket 0.
func enumerateSplits(flows []apps.FlowType, k int) []split {
	counts := map[apps.FlowType]int{}
	var order []apps.FlowType
	for _, t := range flows {
		if counts[t] == 0 {
			order = append(order, t)
		}
		counts[t]++
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	var out []split
	take := make([]int, len(order))
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == len(order) {
			if remaining != 0 {
				return
			}
			var s0, s1 []apps.FlowType
			for j, t := range order {
				for n := 0; n < take[j]; n++ {
					s0 = append(s0, t)
				}
				for n := 0; n < counts[t]-take[j]; n++ {
					s1 = append(s1, t)
				}
			}
			out = append(out, split{s0: s0, s1: s1})
			return
		}
		max := counts[order[i]]
		if max > remaining {
			max = remaining
		}
		for n := 0; n <= max; n++ {
			take[i] = n
			rec(i+1, remaining-n)
		}
		take[i] = 0
	}
	rec(0, k)
	return out
}

// GreedyPlacement is the contention-aware heuristic the literature
// proposes (e.g. Zhuravlev et al.): sort flows by solo refs/sec
// (aggressiveness) and deal them to sockets in alternating snake order,
// spreading aggressive flows apart. The paper's point is that even the
// best placement barely beats the worst; this heuristic lets callers
// check how close the cheap strategy lands to the exhaustive optimum.
func GreedyPlacement(p *Predictor, flows []apps.FlowType) ([]apps.FlowType, []apps.FlowType, error) {
	type ranked struct {
		t    apps.FlowType
		refs float64
	}
	rs := make([]ranked, len(flows))
	for i, t := range flows {
		s, err := p.Solo(t)
		if err != nil {
			return nil, nil, err
		}
		rs[i] = ranked{t: t, refs: s.L3RefsPerSec()}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].refs != rs[j].refs {
			return rs[i].refs > rs[j].refs
		}
		return rs[i].t < rs[j].t
	})
	var s0, s1 []apps.FlowType
	for i, r := range rs {
		// Snake order 0,1,1,0,0,1,1,0,... spreads the most aggressive
		// flows across sockets while balancing totals.
		if i%4 == 1 || i%4 == 2 {
			s1 = append(s1, r.t)
		} else {
			s0 = append(s0, r.t)
		}
	}
	return s0, s1, nil
}

// --- online re-placement -------------------------------------------------
//
// The exhaustive evaluation above is an offline tool; a running dataplane
// cannot afford to co-run-measure every placement. The live API below
// instead scores placements purely from the flows' *observed* refs/sec and
// their offline drop-versus-competition curves — the paper's prediction
// step 3 applied continuously — so a runtime can decide in microseconds
// whether moving a flow to another socket is worth it.

// LiveFlow describes one running flow for online placement decisions: its
// type, the socket it currently executes on, and its memory-reference rate
// observed over the last telemetry window.
type LiveFlow struct {
	Worker     int // opaque caller handle, returned in swap decisions
	Type       apps.FlowType
	Socket     int
	RefsPerSec float64
	// Pinned excludes the flow from swap candidates while keeping its
	// reference rate in every placement score — one stage of a
	// cross-worker service chain must not migrate away from its peers,
	// but it still contends for its socket's cache.
	Pinned bool
}

// PredictLiveDrops returns each flow's predicted contention-induced drop
// in the current placement: the flow's curve read at the sum of its
// socket co-residents' observed refs/sec. Flows whose type has no curve
// predict zero.
func PredictLiveDrops(curves map[apps.FlowType]Curve, flows []LiveFlow) []float64 {
	perSocket := map[int]float64{}
	for _, f := range flows {
		perSocket[f.Socket] += f.RefsPerSec
	}
	drops := make([]float64, len(flows))
	for i, f := range flows {
		competing := perSocket[f.Socket] - f.RefsPerSec
		if c, ok := curves[f.Type]; ok {
			drops[i] = c.DropAt(competing)
		}
	}
	return drops
}

// worstAvg scores a placement: the maximum predicted drop, with the mean
// as tiebreak.
func worstAvg(curves map[apps.FlowType]Curve, flows []LiveFlow) (worst, avg float64) {
	drops := PredictLiveDrops(curves, flows)
	for _, d := range drops {
		if d > worst {
			worst = d
		}
		avg += d
	}
	if len(drops) > 0 {
		avg /= float64(len(drops))
	}
	return worst, avg
}

// PlanRebalance searches for the single cross-socket swap of two flows
// that most reduces the worst predicted drop. It returns the indices into
// flows of the pair to exchange. No swap is proposed unless the current
// worst predicted drop exceeds threshold and the best swap improves it by
// more than margin (hysteresis against flapping). Pinned flows are never
// swapped but still weigh on every placement's score.
func PlanRebalance(curves map[apps.FlowType]Curve, flows []LiveFlow, threshold, margin float64) (i, j int, ok bool) {
	curWorst, curAvg := worstAvg(curves, flows)
	if curWorst <= threshold {
		return 0, 0, false
	}
	bestWorst, bestAvg := curWorst, curAvg
	bi, bj := -1, -1
	trial := make([]LiveFlow, len(flows))
	for a := 0; a < len(flows); a++ {
		for b := a + 1; b < len(flows); b++ {
			if flows[a].Pinned || flows[b].Pinned {
				continue
			}
			if flows[a].Socket == flows[b].Socket || flows[a].Type == flows[b].Type {
				continue
			}
			copy(trial, flows)
			trial[a].Socket, trial[b].Socket = flows[b].Socket, flows[a].Socket
			w, v := worstAvg(curves, trial)
			if w < bestWorst || (w == bestWorst && v < bestAvg) {
				bestWorst, bestAvg = w, v
				bi, bj = a, b
			}
		}
	}
	if bi < 0 || curWorst-bestWorst <= margin {
		return 0, 0, false
	}
	return bi, bj, true
}

// EvaluateSplit measures one specific split — the per-flow and average
// drop of co-running s0 on one socket and s1 on the other. It is the unit
// EvaluatePlacements enumerates, and what scores a heuristic placement
// against Best/Worst.
func EvaluateSplit(p *Predictor, s0, s1 []apps.FlowType) (Placement, error) {
	var pl Placement
	var sum float64
	measure := func(socket int, mix []apps.FlowType) ([]apps.FlowType, error) {
		drops, sorted, err := p.MeasuredDrops(mix)
		for i, d := range drops {
			pl.PerFlow = append(pl.PerFlow, FlowDrop{Type: sorted[i], Socket: socket, Drop: d})
			sum += d
		}
		return sorted, err
	}
	var err error
	if pl.Socket0, err = measure(0, s0); err != nil {
		return Placement{}, err
	}
	if pl.Socket1, err = measure(1, s1); err != nil {
		return Placement{}, err
	}
	pl.AvgDrop = sum / float64(len(pl.PerFlow))
	return pl, nil
}
