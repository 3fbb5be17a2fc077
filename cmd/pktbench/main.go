// Command pktbench is the deterministic engine's front end: it
// regenerates the paper's tables and figures, and its subcommands apply
// the individual steps of the prediction method to a workload you name.
//
// Usage:
//
//	pktbench [-exp NAME|all] [-csv]
//	pktbench profile [-flow MON]
//	pktbench predict [-mix MON,MON,VPN,VPN,FW,RE]
//	pktbench sched   [-flows 6xMON,6xFW]
//
// -exp all, the default, runs every experiment pktbench -h lists, in that
// order. Every form takes -scale full|quick (default full, the paper platform).
// A flow-type list is comma-separated, each entry a type or COUNTxTYPE:
// "MON,MON,VPN" and "2xMON,VPN" are the same mix.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/table"
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
		*l = append(*l, slices.Repeat([]apps.FlowType{t}, count)...)
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

// tabled hands on the table of a driver's result, or its error.
func tabled[R interface{ Table() *table.Table }](r R, err error) (*table.Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Table(), nil
}

// figureTable is every -exp experiment, in the order -exp all runs them.
var figureTable = []struct {
	name string
	run  func(*core.Predictor) (*table.Table, error)
}{
	{"table1", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunTable1(p)) }},
	{"fig2", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunFig2(p)) }},
	{"fig4", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunFig4(p, nil)) }},
	{"fig5", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunFig5(p)) }},
	{"fig6", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunFig6(p)) }},
	{"fig7", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunFig7(p)) }},
	{"fig8", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunFig8(p)) }},
	{"fig9", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunFig9(p, nil)) }},
	{"fig10", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunFig10(p, nil)) }},
	{"throttle", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunThrottle(p)) }},
	{"pipeline", func(p *core.Predictor) (*table.Table, error) { return tabled(exp.RunPipeline(p)) }},
}

func figures(fs *flag.FlagSet) func(exp.Scale) error {
	var names []string
	for _, f := range figureTable {
		names = append(names, f.name)
	}
	names = append(names, "all")
	expName := fs.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	csv := fs.Bool("csv", false, "emit CSV instead of text tables")
	return func(scale exp.Scale) error {
		if !slices.Contains(names, *expName) {
			return fmt.Errorf("unknown experiment %q (want %s)", *expName, strings.Join(names, ", "))
		}
		// One predictor for every experiment: its memoised profiles, sweeps and
		// co-runs are reused, exactly as an operator reuses offline profiles.
		p := scale.NewPredictor()
		for _, f := range figureTable {
			if *expName != "all" && f.name != *expName {
				continue
			}
			start := time.Now()
			t, err := f.run(p)
			if err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
			if *csv {
				fmt.Printf("# %s (%s scale)\n%s", f.name, scale.Name, t.CSV())
			} else {
				fmt.Printf("=== %s (%s scale, %.1fs) ===\nmethod: warm-up %g ms, window %g ms, SYN compute grid %v; deterministic engine: one run per point, spread 0\n%s\n",
					f.name, scale.Name, time.Since(start).Seconds(), p.Warmup*1e3, p.Window*1e3, p.SweepGrid, t)
			}
		}
		return nil
	}
}
