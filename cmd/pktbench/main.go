// Command pktbench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports, as text or
// CSV.
//
// Usage:
//
//	pktbench -exp table1|fig2|fig4|fig5|fig6|fig7|fig8|fig9|fig10|throttle|pipeline|all
//	         [-scale full|quick] [-csv] [-targets MON,IP]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
)

// result is the common surface of all experiment results.
type result interface {
	String() string
	CSV() string
}

func main() {
	expName := flag.String("exp", "all", "experiment id (table1, fig2, fig4, fig5, fig6, fig7, fig8, fig9, fig10, throttle, pipeline, all)")
	scaleName := flag.String("scale", "full", "experiment scale: full (paper) or quick")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	targets := flag.String("targets", "", "comma-separated flow types for fig4 (default: all)")
	flag.Parse()

	scale, err := exp.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pktbench: %v\n", err)
		os.Exit(2)
	}

	var targetTypes []apps.FlowType
	if *targets != "" {
		for _, s := range strings.Split(*targets, ",") {
			t, err := apps.ParseFlowType(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "pktbench:", err)
				os.Exit(2)
			}
			targetTypes = append(targetTypes, t)
		}
	}

	names := []string{*expName}
	if *expName == "all" {
		names = []string{"table1", "fig2", "fig4", "fig5", "fig6", "fig7",
			"fig8", "fig9", "fig10", "throttle", "pipeline"}
	}

	// One predictor shared across experiments: solo profiles, sweeps, and
	// co-run measurements are memoised, exactly as an operator would
	// reuse offline profiles.
	p := scale.NewPredictor()
	var fig2 *exp.Fig2Result

	for _, name := range names {
		start := time.Now()
		res, err := run(name, scale, p, &fig2, targetTypes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pktbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s (%s scale)\n%s", name, scale.Name, res.CSV())
		} else {
			fmt.Printf("=== %s (%s scale, %.1fs) ===\n%s\n",
				name, scale.Name, time.Since(start).Seconds(), res.String())
		}
	}
}

func run(name string, scale exp.Scale, p *core.Predictor, fig2 **exp.Fig2Result, targets []apps.FlowType) (result, error) {
	switch name {
	case "table1":
		return exp.RunTable1(scale)
	case "fig2":
		r, err := exp.RunFig2(scale, p)
		if err == nil {
			*fig2 = r
		}
		return r, err
	case "fig4":
		return exp.RunFig4(scale, p, targets)
	case "fig5":
		return exp.RunFig5(scale, p, *fig2)
	case "fig6":
		return exp.RunFig6(scale, p)
	case "fig7":
		return exp.RunFig7(scale, p)
	case "fig8":
		return exp.RunFig8(scale, p)
	case "fig9":
		return exp.RunFig9(scale, p)
	case "fig10":
		return exp.RunFig10(scale, p, nil)
	case "throttle":
		return exp.RunThrottle(scale, p)
	case "pipeline":
		return exp.RunPipeline(scale)
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}
