// Command sched explores flow-to-core placements for a 12-flow
// combination, reproducing the paper's Section 5 analysis: it simulates
// every distinct placement, reports the best and worst, and scores the
// greedy contention-aware heuristic against them. The paper's conclusion
// — the gain is small — shows up as a tight best-to-worst range.
//
// Usage:
//
//	sched -flows 6xMON,6xFW [-scale full|quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
)

func main() {
	flowsArg := flag.String("flows", "6xMON,6xFW", "flow combination, e.g. 6xMON,6xFW or 4xMON,4xFW,4xRE")
	scaleName := flag.String("scale", "full", "full or quick")
	flag.Parse()

	scale, err := exp.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sched: %v\n", err)
		os.Exit(2)
	}

	flows, err := parseFlows(*flowsArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sched:", err)
		os.Exit(2)
	}
	want := 2 * scale.Cfg.CoresPerSocket
	if len(flows) != want {
		fmt.Fprintf(os.Stderr, "sched: %d flows specified, platform has %d cores\n", len(flows), want)
		os.Exit(2)
	}

	p := scale.NewPredictor()
	eval, err := core.EvaluatePlacements(p, flows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sched:", err)
		os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "sched:", err)
		os.Exit(1)
	}
	greedy, err := core.EvaluateSplit(p, s0, s1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sched:", err)
		os.Exit(1)
	}
	fmt.Printf("greedy heuristic: {%v | %v} avg=%.1f%% (best %.1f%%, worst %.1f%%)\n",
		s0, s1, greedy*100, eval.Best.AvgDrop*100, eval.Worst.AvgDrop*100)
}

// parseFlows expands "6xMON,6xFW" style specs.
func parseFlows(s string) ([]apps.FlowType, error) {
	var out []apps.FlowType
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		count := 1
		name := part
		if i := strings.IndexByte(part, 'x'); i > 0 {
			if n, err := strconv.Atoi(part[:i]); err == nil {
				count = n
				name = part[i+1:]
			}
		}
		t, err := apps.ParseFlowType(name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < count; i++ {
			out = append(out, t)
		}
	}
	return out, nil
}
