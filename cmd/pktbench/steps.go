package main

import (
	"flag"
	"fmt"
	"io"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/hw"
	"pktpredict/internal/table"
)

// profile runs one packet-processing flow solo on the simulated platform
// — the same solo run Table 1 reports — and prints its Table 1 row plus a
// per-function breakdown: the offline-profiling step of the paper's
// prediction method.
func profile(fs *flag.FlagSet) func(exp.Scale, io.Writer) error {
	flow := typeList{apps.MON}
	fs.Var(&flow, "flow", "flow type: IP, MON, FW, RE, VPN, SYN, SYN_MAX")
	return func(scale exp.Scale, w io.Writer) error {
		if len(flow) != 1 {
			return fmt.Errorf("-flow wants exactly one flow type, got %v", &flow)
		}
		st, err := scale.NewPredictor().Solo(flow[0])
		if err != nil {
			return err
		}
		st.Label = string(flow[0])
		fmt.Fprintln(w, (&exp.Table1Result{Profiles: []hw.FlowStats{st}}).Table())
		fmt.Fprintf(w, "throughput: %.0f packets/sec\n\n", st.Throughput())
		funcs := table.New("per-function breakdown", "function", "cycles", "l3_refs", "l3_hits", "l3_misses")
		for _, fn := range st.FuncBreakdown() {
			funcs.Add(fn.Name, fn.Cycles, fn.L3Refs, fn.L3Hits, fn.L3Misses)
		}
		fmt.Fprint(w, funcs)
		return nil
	}
}

// predict is Figure 9 for the mix you name: the paper's prediction method
// (solo profiles, SYN-sweep curves, predicted drops) checked against a
// co-run of the mix.
func predict(fs *flag.FlagSet) func(exp.Scale, io.Writer) error {
	mix := typeList(exp.Fig9Mix)
	fs.Var(&mix, "mix", "flow-type list sharing one socket")
	return func(scale exp.Scale, w io.Writer) error {
		if len(mix) == 0 {
			return fmt.Errorf("-mix names no flow type")
		}
		res, err := exp.RunFig9(scale.NewPredictor(), mix)
		if err == nil {
			fmt.Fprint(w, res.Table())
		}
		return err
	}
}

// sched is Figure 10 for the combination you name, one flow per core of
// both sockets: every distinct placement, the best and worst (the paper's
// Section 5 finding is a small gap), and the greedy contention-aware
// heuristic scored against them.
func sched(fs *flag.FlagSet) func(exp.Scale, io.Writer) error {
	flows := typeList(exp.DefaultCombos()[0].Flows) // Figure 10(b)'s 6 MON + 6 FW
	fs.Var(&flows, "flows", "flow-type list, one flow per core, e.g. 6xMON,6xFW or 4xMON,4xFW,4xRE")
	return func(scale exp.Scale, w io.Writer) error {
		p := scale.NewPredictor()
		res, err := exp.RunFig10(p, []exp.Fig10Combo{{Flows: flows}})
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Table())
		s0, s1, err := core.GreedyPlacement(p, flows)
		if err != nil {
			return err
		}
		greedy, err := core.EvaluateSplit(p, s0, s1)
		if err != nil {
			return err
		}
		eval := res.Combos[0].Eval
		fmt.Fprintf(w, "greedy heuristic: {%v | %v} avg=%.1f%% (best %.1f%%, worst %.1f%%)\n",
			s0, s1, greedy.AvgDrop*100, eval.Best.AvgDrop*100, eval.Worst.AvgDrop*100)
		return nil
	}
}
