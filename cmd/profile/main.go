// Command profile runs one packet-processing flow solo on the simulated
// platform and prints its Table 1 row plus a per-function breakdown —
// the offline-profiling step of the paper's prediction method.
//
// Usage:
//
//	profile -flow MON [-scale full|quick] [-window 0.012] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/perf"
)

func main() {
	flow := flag.String("flow", "MON", "flow type: IP, MON, FW, RE, VPN, SYN, SYN_MAX")
	scaleName := flag.String("scale", "full", "full or quick")
	window := flag.Float64("window", 0, "measurement window in virtual seconds (0 = scale default)")
	seed := flag.Uint64("seed", 0, "flow seed (0 = canonical)")
	flag.Parse()

	t, err := apps.ParseFlowType(*flow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
		os.Exit(2)
	}
	scale, err := exp.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		os.Exit(2)
	}
	if *window > 0 {
		scale.Window = *window
	}
	flowSeed := *seed
	if flowSeed == 0 {
		flowSeed = core.SeedFor(t, 0)
	}

	sc := core.Scenario{
		Cfg:    scale.Cfg,
		Params: scale.Params,
		Flows:  []core.FlowSpec{{Type: t, Core: 0, Domain: 0, Seed: flowSeed}},
		Warmup: scale.Warmup,
		Window: scale.Window,
	}
	res, err := sc.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
		os.Exit(1)
	}
	p := perf.Profile{Label: string(t), Stats: res.Stats[0]}
	fmt.Println(perf.Table([]perf.Profile{p}))
	fmt.Printf("throughput: %.0f packets/sec\n\n", p.Throughput())

	fmt.Println("per-function breakdown:")
	fmt.Printf("%-20s %12s %12s %12s %12s\n", "function", "cycles", "L3 refs", "L3 hits", "L3 misses")
	for _, fs := range res.Stats[0].FuncBreakdown() {
		fmt.Printf("%-20s %12d %12d %12d %12d\n", fs.Name, fs.Cycles, fs.L3Refs, fs.L3Hits, fs.L3Misses)
	}
}
