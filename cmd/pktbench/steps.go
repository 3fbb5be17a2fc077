package main

import (
	"flag"
	"fmt"
	"math"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/hw"
)

// profile runs one packet-processing flow solo on the simulated platform
// — the same solo run Table 1 reports — and prints its Table 1 row plus a
// per-function breakdown: the offline-profiling step of the paper's
// prediction method.
func profile(fs *flag.FlagSet) func(exp.Scale) error {
	flow := typesFlag(fs, "flow", "MON", "flow type: IP, MON, FW, RE, VPN, SYN, SYN_MAX")
	return func(scale exp.Scale) error {
		if len(*flow) != 1 {
			return fmt.Errorf("-flow wants exactly one flow type, got %v", flow)
		}
		t := (*flow)[0]
		st, err := scale.NewPredictor().Solo(t)
		if err != nil {
			return err
		}
		st.Label = string(t)
		fmt.Println(exp.Table([]hw.FlowStats{st}))
		fmt.Printf("throughput: %.0f packets/sec\n\n", st.Throughput())

		fmt.Println("per-function breakdown:")
		fmt.Printf("%-20s %12s %12s %12s %12s\n", "function", "cycles", "L3 refs", "L3 hits", "L3 misses")
		for _, fn := range st.FuncBreakdown() {
			fmt.Printf("%-20s %12d %12d %12d %12d\n", fn.Name, fn.Cycles, fn.L3Refs, fn.L3Hits, fn.L3Misses)
		}
		return nil
	}
}

// predict applies the paper's three-step prediction method to a workload
// mix: it profiles each flow type solo, builds the target's
// drop-versus-competition curve with SYN sweeps, and predicts every
// flow's contention-induced drop. With -validate it also co-runs the mix
// and reports measured drops and prediction error.
func predict(fs *flag.FlagSet) func(exp.Scale) error {
	mix := typesFlag(fs, "mix", "MON,MON,VPN,VPN,FW,RE", "flow-type list sharing one socket")
	validate := fs.Bool("validate", false, "also co-run the mix and report measured drops")
	return func(scale exp.Scale) error {
		if len(*mix) == 0 {
			return fmt.Errorf("-mix names no flow type")
		}
		p := scale.NewPredictor()
		preds, sorted, err := p.PredictMix(*mix)
		if err != nil {
			return err
		}
		fmt.Printf("workload mix: %v\n\n", sorted)
		if !*validate {
			fmt.Printf("%-8s %14s %16s\n", "flow", "pred. drop", "competition")
			for i, t := range sorted {
				fmt.Printf("%-8s %13.1f%% %13.1fM/s\n", t,
					preds[i].Drop*100, preds[i].CompetingRefsPerSec/1e6)
			}
			return nil
		}
		measured, _, err := p.MeasuredDrops(*mix)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %12s %12s %10s\n", "flow", "predicted", "measured", "|error|")
		var worst float64
		for i, t := range sorted {
			e := math.Abs(preds[i].Drop - measured[i])
			worst = max(worst, e)
			fmt.Printf("%-8s %11.1f%% %11.1f%% %9.2f%%\n", t,
				preds[i].Drop*100, measured[i]*100, e*100)
		}
		fmt.Printf("\nworst-case error: %.2f%%\n", worst*100)
		return nil
	}
}

// sched explores flow-to-core placements for a flow combination filling
// both sockets, reproducing the paper's Section 5 analysis: it simulates
// every distinct placement, reports the best and worst, and scores the
// greedy contention-aware heuristic against them. The paper's conclusion
// — the gain is small — shows up as a tight best-to-worst range.
func sched(fs *flag.FlagSet) func(exp.Scale) error {
	flagged := typesFlag(fs, "flows", "6xMON,6xFW", "flow-type list, one flow per core, e.g. 6xMON,6xFW or 4xMON,4xFW,4xRE")
	return func(scale exp.Scale) error {
		flows := []apps.FlowType(*flagged)
		if want := 2 * scale.Cfg.CoresPerSocket; len(flows) != want {
			return fmt.Errorf("%d flows specified, platform has %d cores", len(flows), want)
		}
		p := scale.NewPredictor()
		eval, err := core.EvaluatePlacements(p, flows)
		if err != nil {
			return err
		}
		fmt.Printf("combination: %v\n", flows)
		fmt.Printf("distinct placements: %d\n\n", len(eval.All))
		for _, pl := range eval.All {
			fmt.Printf("  %v\n", pl)
		}
		fmt.Printf("\nbest:  %v\nworst: %v\n", eval.Best, eval.Worst)
		fmt.Printf("contention-aware scheduling gain: %.1f%%\n", eval.Gain*100)

		s0, s1, err := core.GreedyPlacement(p, flows)
		if err != nil {
			return err
		}
		greedy, err := core.EvaluateSplit(p, s0, s1)
		if err != nil {
			return err
		}
		fmt.Printf("greedy heuristic: {%v | %v} avg=%.1f%% (best %.1f%%, worst %.1f%%)\n",
			s0, s1, greedy.AvgDrop*100, eval.Best.AvgDrop*100, eval.Worst.AvgDrop*100)
		return nil
	}
}
