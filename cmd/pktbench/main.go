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
	"io"
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
var commands = map[string]func(fs *flag.FlagSet) func(exp.Scale, io.Writer) error{
	"":        figures,
	"profile": profile,
	"predict": predict,
	"sched":   sched,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: the report goes to stdout, the rest to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	setup, ok := commands[name]
	if !ok {
		fmt.Fprintf(stderr, "pktbench: unknown command %q (want profile, predict, sched, or flags for the figures)\n", name)
		return 2
	}
	fs := flag.NewFlagSet(strings.TrimSpace("pktbench "+name), flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "full", "platform/workload scale: full (paper) or quick")
	body := setup(fs)
	switch err := fs.Parse(args); { // a bad flag or flow-type list is an error here
	case err == flag.ErrHelp:
		return 0
	case err != nil:
		return 2 // fs has printed the error and the usage
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return 2
	}
	scale, err := exp.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		return 2
	}
	if err := body(scale, stdout); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		return 1
	}
	return 0
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

// tabler is an experiment driver's result.
type tabler interface{ Table() *table.Table }

// figureTable is every -exp experiment, in the order -exp all runs them.
var figureTable = []struct {
	name string
	run  func(*core.Predictor) (tabler, error)
}{
	{"table1", func(p *core.Predictor) (tabler, error) { return exp.RunTable1(p) }},
	{"fig2", func(p *core.Predictor) (tabler, error) { return exp.RunFig2(p) }},
	{"fig4", func(p *core.Predictor) (tabler, error) { return exp.RunFig4(p, nil) }},
	{"fig5", func(p *core.Predictor) (tabler, error) { return exp.RunFig5(p) }},
	{"fig6", func(p *core.Predictor) (tabler, error) { return exp.RunFig6(p) }},
	{"fig7", func(p *core.Predictor) (tabler, error) { return exp.RunFig7(p) }},
	{"fig8", func(p *core.Predictor) (tabler, error) { return exp.RunFig8(p) }},
	{"fig9", func(p *core.Predictor) (tabler, error) { return exp.RunFig9(p, nil) }},
	{"fig10", func(p *core.Predictor) (tabler, error) { return exp.RunFig10(p, nil) }},
	{"throttle", func(p *core.Predictor) (tabler, error) { return exp.RunThrottle(p) }},
	{"pipeline", func(p *core.Predictor) (tabler, error) { return exp.RunPipeline(p) }},
}

func figures(fs *flag.FlagSet) func(exp.Scale, io.Writer) error {
	var names []string
	for _, f := range figureTable {
		names = append(names, f.name)
	}
	names = append(names, "all")
	expName := fs.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	csv := fs.Bool("csv", false, "emit CSV instead of text tables")
	return func(scale exp.Scale, w io.Writer) error {
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
			res, err := f.run(p)
			if err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
			t := res.Table()
			if *csv {
				fmt.Fprintf(w, "# %s (%s scale)\n%s", f.name, scale.Name, t.CSV())
			} else {
				fmt.Fprintf(w, "=== %s (%s scale, %.1fs) ===\nmethod: warm-up %g ms, window %g ms, SYN compute grid %v; deterministic engine: one run per point, spread 0\n%s\n",
					f.name, scale.Name, time.Since(start).Seconds(), p.Warmup*1e3, p.Window*1e3, p.SweepGrid, t)
			}
		}
		return nil
	}
}
