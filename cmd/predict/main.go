// Command predict applies the paper's three-step prediction method to a
// user-specified workload mix: it profiles each flow type solo, builds
// the target's drop-versus-competition curve with SYN sweeps, and
// predicts every flow's contention-induced drop. With -validate it also
// co-runs the mix and reports measured drops and prediction error.
//
// Usage:
//
//	predict -mix MON,MON,VPN,VPN,FW,RE [-scale full|quick] [-validate]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/exp"
)

func main() {
	mixArg := flag.String("mix", "MON,MON,VPN,VPN,FW,RE", "comma-separated flow types sharing one socket")
	scaleName := flag.String("scale", "full", "full or quick")
	validate := flag.Bool("validate", false, "also co-run the mix and report measured drops")
	flag.Parse()

	scale, err := exp.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predict: %v\n", err)
		os.Exit(2)
	}

	var mix []apps.FlowType
	for _, s := range strings.Split(*mixArg, ",") {
		t, err := apps.ParseFlowType(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "predict:", err)
			os.Exit(2)
		}
		mix = append(mix, t)
	}

	p := scale.NewPredictor()
	preds, sorted, err := p.PredictMix(mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(1)
	}

	fmt.Printf("workload mix: %v\n\n", sorted)
	if !*validate {
		fmt.Printf("%-8s %14s %16s\n", "flow", "pred. drop", "competition")
		for i, t := range sorted {
			fmt.Printf("%-8s %13.1f%% %13.1fM/s\n", t,
				preds[i].Drop*100, preds[i].CompetingRefsPerSec/1e6)
		}
		return
	}

	measured, _, err := p.MeasuredDrops(mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(1)
	}
	fmt.Printf("%-8s %12s %12s %10s\n", "flow", "predicted", "measured", "|error|")
	var worst float64
	for i, t := range sorted {
		e := preds[i].Drop - measured[i]
		if e < 0 {
			e = -e
		}
		if e > worst {
			worst = e
		}
		fmt.Printf("%-8s %11.1f%% %11.1f%% %9.2f%%\n", t,
			preds[i].Drop*100, measured[i]*100, e*100)
	}
	fmt.Printf("\nworst-case error: %.2f%%\n", worst*100)
}
