// Command sweep executes an evaluation grid — platform variants ×
// offered-load multipliers × scenario files — in parallel and reports
// per-app predicted-versus-measured drop, goodput, and remote-reference
// locality at every point, aggregated into max/mean prediction error:
// the paper's evaluation table as a one-command regression harness.
//
// Usage:
//
//	sweep -config examples/sweeps/paper_mixes.sweep
//	      [-scale quick|full] [-platform "KEY VALUE, ..."]
//	      [-json report.json] [-md report.md] [-q]
//	      [-profile-cache cache.json]
//	      [-trend trend.json] [-trend-md trend.md] [-trend-svg dir]
//
// -profile-cache persists offline profiling results keyed by their full
// inputs (platform, workload parameters, profiling windows, sweep grid,
// flow type) plus the git revision. A warm cache turns the dominant cost
// of a -scale full sweep — re-deriving unchanged solo profiles and
// contention curves — into a file read; any input change, including a new
// commit, misses and re-profiles.
//
// -trend appends this run's per-scenario max/mean prediction error and
// worst p99 latency to a persistent store keyed by git revision and
// scenario, and prints the accumulated trend table — the accuracy time
// series across commits that catches a slow regression the per-run
// tolerance gate still admits. -trend-md writes that table to a file
// and -trend-svg renders one sparkline SVG per scenario, the artifacts
// the nightly full-scale job uploads.
//
// The markdown report is printed to stdout (and to -md when given); the
// JSON report is written to -json. The exit status is the gate: 0 when
// every point's validated apps are within the scenario's prediction-
// error tolerance AND every declared latency SLO held, 1 otherwise —
// which is how CI turns the smoke grid into a per-PR data point (the
// JSON report is uploaded as an artifact).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"pktpredict/internal/exp"
	"pktpredict/internal/scenario"
	"pktpredict/internal/sweep"
)

// gitRev keys trend entries by the working tree's commit; outside a git
// checkout (or without git) the entries still append under "unknown".
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: the report goes to stdout, the rest to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "", "sweep grid file (.sweep, see examples/sweeps/)")
	scaleName := fs.String("scale", "quick", "platform/workload scale: quick or full")
	platformOverrides := fs.String("platform", "",
		`platform overrides as "KEY VALUE, KEY VALUE", applied on top of every grid variant`)
	jsonPath := fs.String("json", "", "write the JSON report here")
	mdPath := fs.String("md", "", "write the markdown report here (stdout always gets it)")
	cachePath := fs.String("profile-cache", "",
		"persistent offline-profile cache file: profiles keyed by platform, workload, windows, grid, flow type, and git revision; warm entries skip re-profiling")
	trendPath := fs.String("trend", "",
		"append per-scenario prediction error to this JSON trend store (keyed by git rev + scenario) and print the trend table")
	trendMD := fs.String("trend-md", "", "write the trend markdown table here (requires -trend)")
	trendSVG := fs.String("trend-svg", "", "write one per-scenario sparkline SVG into this directory (requires -trend)")
	quiet := fs.Bool("q", false, "suppress per-point progress on stderr")
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return 0
	case err != nil:
		return 2 // fs has printed the error and the usage
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "sweep: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	// internal/sweep's errors start with its name, which is ours: print it once.
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sweep:", strings.TrimPrefix(err.Error(), "sweep: "))
		return 1
	}

	if *configPath == "" {
		return fail(errors.New("-config is required"))
	}
	if *trendMD != "" && *trendPath == "" {
		return fail(errors.New("-trend-md requires -trend"))
	}
	if *trendSVG != "" && *trendPath == "" {
		return fail(errors.New("-trend-svg requires -trend"))
	}
	scale, err := exp.ScaleByName(*scaleName)
	if err != nil {
		return fail(err)
	}
	cfg, err := sweep.LoadConfig(*configPath)
	if err != nil {
		return fail(err)
	}
	overrides, err := scenario.ParseOverrides(*platformOverrides)
	if err != nil {
		return fail(err)
	}

	r := &sweep.Runner{Config: cfg, Scale: scale, Overrides: overrides}
	if *cachePath != "" {
		// Salting the keys with the git revision means a code change can
		// never serve stale curves; re-runs at the same revision (CI
		// retries, nightly restores, local iteration) start warm.
		cache, err := sweep.OpenProfileCache(*cachePath, gitRev())
		if err != nil {
			return fail(err)
		}
		r.ProfileCache = cache
	}
	if !*quiet {
		r.Progress = stderr
		fmt.Fprintf(stderr, "sweep: %s — %d platforms × %d loads × %d scenarios = %d points (%s scale)\n",
			cfg.Name, len(cfg.Platforms), len(cfg.Loads), len(cfg.Runs), cfg.Points(), scale.Name)
	}
	rep, err := r.Run()
	if err != nil {
		return fail(err)
	}
	if *cachePath != "" {
		hits, misses := r.ProfileCache.Stats()
		fmt.Fprintf(stderr, "sweep: profile cache %s: %d hits, %d misses, %d entries\n",
			*cachePath, hits, misses, r.ProfileCache.Len())
	}

	md := rep.Markdown()
	fmt.Fprint(stdout, md)
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md), 0o644); err != nil {
			return fail(err)
		}
	}
	if *jsonPath != "" {
		js, err := rep.JSON()
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(js, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if *trendPath != "" {
		trend, err := sweep.LoadTrend(*trendPath)
		if err != nil {
			return fail(err)
		}
		trend.Append(rep, gitRev(), time.Now().UTC().Format(time.RFC3339))
		if err := trend.Save(*trendPath); err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, "\n"+trend.Markdown())
		if *trendMD != "" {
			if err := os.WriteFile(*trendMD, []byte(trend.Markdown()), 0o644); err != nil {
				return fail(fmt.Errorf("trend: %w", err))
			}
		}
		if *trendSVG != "" {
			if err := os.MkdirAll(*trendSVG, 0o755); err != nil {
				return fail(fmt.Errorf("trend: %w", err))
			}
			for _, scen := range trend.Scenarios() {
				svg := trend.SparklineSVG(scen)
				if svg == "" {
					continue
				}
				path := filepath.Join(*trendSVG, "trend-"+scen+".svg")
				if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
					return fail(fmt.Errorf("trend: %w", err))
				}
			}
		}
	}
	if !rep.Pass {
		fmt.Fprintf(stderr, "sweep: FAIL — %d/%d points outside tolerance (max |err| %.1f%%)\n",
			rep.Failed, len(rep.Points), rep.MaxAbsErr*100)
		return 1
	}
	fmt.Fprintf(stderr, "sweep: PASS — max |err| %.1f%%, mean %.1f%% over %d points\n",
		rep.MaxAbsErr*100, rep.MeanAbsErr*100, len(rep.Points))
	return 0
}
