// Command pktbench is the deterministic engine's front end: it
// regenerates the paper's tables and figures, and its subcommands apply
// the individual steps of the prediction method to a workload you name.
//
// Usage:
//
//	pktbench [-exp table1|fig2|fig4|fig5|fig6|fig7|fig8|fig9|fig10|throttle|pipeline|all]
//	         [-csv] [-targets MON,IP]
//	pktbench profile [-flow MON]
//	pktbench predict [-mix MON,MON,VPN,VPN,FW,RE] [-validate]
//	pktbench sched   [-flows 6xMON,6xFW]
//
// Every form takes -scale full|quick (default full, the paper platform).
// A flow-type list is comma-separated, each entry a type or COUNTxTYPE:
// "MON,MON,VPN" and "2xMON,VPN" are the same mix.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
)

// commands maps a subcommand to its setup: register flags on fs, return
// the function to run once they and -scale are parsed. The empty name is
// the bare `pktbench -exp ...` form.
var commands = map[string]func(fs *flag.FlagSet) func(exp.Scale) error{
	"":        figures,
	"profile": profile,
	"predict": predict,
	"sched":   sched,
}

func main() {
	name, args := "", os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	setup, ok := commands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "pktbench: unknown command %q (want profile, predict, sched, or flags for the figures)\n", name)
		os.Exit(2)
	}
	fs := flag.NewFlagSet(strings.TrimSpace("pktbench "+name), flag.ExitOnError)
	scaleName := fs.String("scale", "full", "platform/workload scale: full (paper) or quick")
	run := setup(fs)
	fs.Parse(args) // ExitOnError: a bad flag or flow-type list exits 2 here
	scale, err := exp.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
		os.Exit(2)
	}
	if err := run(scale); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
		os.Exit(1)
	}
}

// typeList is a flag holding a flow-type list ("MON,IP", "6xMON,6xFW").
type typeList []apps.FlowType

func (l *typeList) String() string { return fmt.Sprint([]apps.FlowType(*l)) }

func (l *typeList) Set(s string) error {
	*l = nil
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		count, name := 1, part
		if n, rest, ok := strings.Cut(part, "x"); ok {
			if c, err := strconv.Atoi(n); err == nil {
				if c < 1 {
					return fmt.Errorf("%q: a count must be at least 1", part)
				}
				count, name = c, rest
			}
		}
		t, err := apps.ParseFlowType(name)
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			*l = append(*l, t)
		}
	}
	return nil
}

// typesFlag registers a flow-type-list flag whose default is written in
// the flag's own syntax.
func typesFlag(fs *flag.FlagSet, name, def, usage string) *typeList {
	l := new(typeList)
	if err := l.Set(def); err != nil {
		panic(err) // a default that does not parse is a bug
	}
	fs.Var(l, name, usage)
	return l
}

// result is the common surface of all experiment results.
type result interface {
	String() string
	CSV() string
}

func figures(fs *flag.FlagSet) func(exp.Scale) error {
	expName := fs.String("exp", "all", "experiment id (table1, fig2, fig4, fig5, fig6, fig7, fig8, fig9, fig10, throttle, pipeline, all)")
	csv := fs.Bool("csv", false, "emit CSV instead of text tables")
	targets := typesFlag(fs, "targets", "", "flow-type list for fig4 (default: all)")
	return func(scale exp.Scale) error {
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
			res, err := runFigure(name, scale, p, &fig2, *targets)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if *csv {
				fmt.Printf("# %s (%s scale)\n%s", name, scale.Name, res.CSV())
			} else {
				fmt.Printf("=== %s (%s scale, %.1fs) ===\n%s\n",
					name, scale.Name, time.Since(start).Seconds(), res.String())
			}
		}
		return nil
	}
}

func runFigure(name string, scale exp.Scale, p *core.Predictor, fig2 **exp.Fig2Result, targets []apps.FlowType) (result, error) {
	switch name {
	case "table1":
		return exp.RunTable1(scale, p)
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
