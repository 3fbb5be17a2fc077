// Middlebox consolidation: a network operator packs different clients'
// packet-processing onto one socket — monitoring for one client, VPN
// tunnelling for another, a firewall and a WAN optimiser for a third —
// and wants to know, before deploying, how much each flow will slow down.
//
// This is the paper's Figure 9 scenario: predict each flow's
// contention-induced drop from offline profiles only, then validate
// against the measured co-run.
package main

import (
	"fmt"
	"log"

	"pktpredict/internal/exp"
)

func main() {
	scale := exp.Full()
	// Shorter windows than the benchmark defaults keep this example
	// interactive while preserving steady-state measurement.
	scale.Warmup, scale.Window = 0.003, 0.008
	scale.SweepGrid = []int{1600, 400, 100, 25, 0}

	fmt.Printf("consolidated middlebox workload (one socket): %v\n", exp.Fig9Mix)
	fmt.Println("offline profiling (solo runs + SYN sweeps), then the measured co-run...")
	res, err := exp.RunFig9(scale.NewPredictor(), exp.Fig9Mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s(paper: 1.26%% worst-case error for this mix)\n", res.Table())
}
