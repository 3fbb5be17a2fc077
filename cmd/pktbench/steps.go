package main

import (
	"flag"
	"fmt"

	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/hw"
	"pktpredict/internal/table"
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
		st, err := scale.NewPredictor().Solo((*flow)[0])
		if err != nil {
			return err
		}
		st.Label = string((*flow)[0])
		fmt.Println((&exp.Table1Result{Profiles: []hw.FlowStats{st}}).Table())
		fmt.Printf("throughput: %.0f packets/sec\n\n", st.Throughput())
		funcs := table.New("per-function breakdown", "function", "cycles", "l3_refs", "l3_hits", "l3_misses")
		for _, fn := range st.FuncBreakdown() {
			funcs.Add(fn.Name, fn.Cycles, fn.L3Refs, fn.L3Hits, fn.L3Misses)
		}
		fmt.Print(funcs)
		return nil
	}
}

// predict is Figure 9 for the mix you name: the paper's prediction method
// (solo profiles, SYN-sweep curves, predicted drops) checked against a
// co-run of the mix.
func predict(fs *flag.FlagSet) func(exp.Scale) error {
	mix := typesFlag(fs, "mix", "MON,MON,VPN,VPN,FW,RE", "flow-type list sharing one socket")
	return func(scale exp.Scale) error {
		if len(*mix) == 0 {
			return fmt.Errorf("-mix names no flow type")
		}
		res, err := exp.RunFig9(scale.NewPredictor(), *mix)
		if err == nil {
			fmt.Print(res.Table())
		}
		return err
	}
}

// sched is Figure 10 for the combination you name, one flow per core of
// both sockets: every distinct placement, the best and worst (the paper's
// Section 5 finding is a small gap), and the greedy contention-aware
// heuristic scored against them.
func sched(fs *flag.FlagSet) func(exp.Scale) error {
	flows := typesFlag(fs, "flows", "6xMON,6xFW", "flow-type list, one flow per core, e.g. 6xMON,6xFW or 4xMON,4xFW,4xRE")
	return func(scale exp.Scale) error {
		p := scale.NewPredictor()
		res, err := exp.RunFig10(p, []exp.Fig10Combo{{Flows: *flows}})
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
		s0, s1, err := core.GreedyPlacement(p, *flows)
		if err != nil {
			return err
		}
		greedy, err := core.EvaluateSplit(p, s0, s1)
		if err != nil {
			return err
		}
		eval := res.Combos[0].Eval
		fmt.Printf("greedy heuristic: {%v | %v} avg=%.1f%% (best %.1f%%, worst %.1f%%)\n",
			s0, s1, greedy.AvgDrop*100, eval.Best.AvgDrop*100, eval.Worst.AvgDrop*100)
		return nil
	}
}
