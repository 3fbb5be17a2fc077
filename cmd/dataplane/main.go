// Command dataplane runs the concurrent multi-core runtime on a
// scenario: it profiles the scenario's flow types offline (solo runs and
// drop-versus-competition sweeps on the deterministic engine), then
// executes the scenario on worker goroutines — one per simulated core —
// and reports per-flow observed throughput and drop next to the paper's
// prediction, plus any admission throttling and live re-placement the
// control loop performed.
//
// Scenarios are Click-style files, named by -scenario: a value ending in
// .click is a path, any other value one of the shipped
// examples/scenarios/*.click by name (they are embedded, so this works
// from any directory). The shipped files include
// the four paper mixes, a branching NAT/firewall service chain (nat_chain.click) whose pipeline graph is
// declared inline in the file, and the same chain cut across workers
// (nat_chain_staged.click): its `stage 1: fw;` declaration runs the
// firewall tail on a second core connected by a hand-off ring, and the
// report carries one row per stage worker.
//
// Usage:
//
//	dataplane [-scenario mixed|bursty|thrash|hidden|...|FILE.click]
//	          [-scale quick|full] [-platform "SOCKETS 2, L3_BYTES 6291456"]
//	          [-duration 0.05] [-noprofile] [-telemetry] [-residuals]
//	          [-metrics-addr :9090] [-trace-out trace.json]
//
// Observability: -metrics-addr serves the live metrics registry over
// HTTP while the dataplane runs (/metrics Prometheus text, /metrics.json
// JSON) — scrape-safe mid-run, including per-element cost counters,
// end-to-end latency quantiles, and SLO burn gauges. -residuals prints
// the per-window prediction-residual series (predicted vs observed drop
// per app, with a diagnosed cause — profile drift names the specific
// element whose live cost diverged from its offline baseline). The
// final report includes a per-app latency table (p50/p99/p999 in
// virtual µs, with SLO breach counts) whenever latencies were recorded.
// -trace-out tags one in 64 packets entering each staged chain,
// records per-stage exec spans in virtual time and writes them as Chrome
// trace-event JSON loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
//
// The platform is layered: -scale supplies the defaults, a scenario
// file's platform :: Platform(...) block overrides the knobs it names,
// and -platform (same KEY VALUE syntax) overrides both (see
// scenario.Scenario.Config). Offline profiling always runs on the
// effective platform.
//
// Durations are virtual seconds on the simulated platform; a -duration
// that is not positive and finite exits 1 naming it. The clock-sync
// quantum is the runtime's default; a .sweep grid varies it (QUANTUM).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/exp"
	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
)

// traceSample is -trace-out's rate: one in traceSample packets entering a
// staged chain is traced.
const traceSample = 64

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: the report goes to stdout, the rest to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dataplane", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioName := fs.String("scenario", "mixed",
		"scenario file: a path ending in .click, or a shipped one by name: "+strings.Join(scenario.ShippedNames(), ", "))
	scaleName := fs.String("scale", "quick", "platform/workload scale: quick or full")
	platformOverrides := fs.String("platform", "",
		`platform overrides as "KEY VALUE, KEY VALUE" (e.g. "SOCKETS 2, L3_BYTES 6291456"); applied over the -scale platform and any scenario Platform block`)
	duration := fs.Float64("duration", 0.05, "measured virtual seconds")
	noprofile := fs.Bool("noprofile", false,
		"skip offline profiling (disables prediction, admission limits, re-placement)")
	telemetry := fs.Bool("telemetry", false, "dump per-window telemetry samples")
	metricsAddr := fs.String("metrics-addr", "",
		"serve live metrics over HTTP on this address (/metrics Prometheus text, /metrics.json)")
	residuals := fs.Bool("residuals", false,
		"print the per-window prediction-residual series with diagnosed causes")
	traceOut := fs.String("trace-out", "",
		"trace one in 64 packets entering each staged chain and write the spans as Chrome trace-event JSON to this file")
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return 0
	case err != nil:
		return 2 // fs has printed the error and the usage
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "dataplane: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dataplane: %v\n", err)
		return 1
	}

	scale, err := exp.ScaleByName(*scaleName)
	if err != nil {
		return fail(err)
	}

	overrides, err := scenario.ParseOverrides(*platformOverrides)
	if err != nil {
		return fail(err)
	}
	load := scenario.Shipped
	if strings.HasSuffix(*scenarioName, ".click") {
		load = scenario.Load
	}
	sc, err := load(*scenarioName)
	if err != nil {
		return fail(err)
	}
	cfg, err := sc.Config(scale.Cfg, scale.Params, overrides)
	if err != nil {
		return fail(err)
	}
	cfg.Warmup = scale.Warmup

	if !*noprofile {
		types := cfg.FlowTypes()
		fmt.Fprintf(stderr, "dataplane: profiling %v offline (%s scale)...\n", types, scale.Name)
		start := time.Now()
		// Profiling must use the scenario's workload parameters (thrash,
		// for example, pins the SYN region; file scenarios register their
		// custom graph types) and the effective platform (a Platform
		// block or -platform override changes the curves), not the raw
		// scale's.
		profiles, err := runtime.ProfileFlows(cfg.Cfg, cfg.Params, scale.Warmup, scale.Window,
			scale.SweepGrid, types)
		if err != nil {
			return fail(fmt.Errorf("profiling: %w", err))
		}
		fmt.Fprintf(stderr, "dataplane: profiling done in %.1fs\n", time.Since(start).Seconds())
		printProfiles(stderr, types, profiles)
		cfg.Profiles = profiles
	}

	if *metricsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		srv, err := obs.Serve(*metricsAddr, cfg.Metrics)
		if err != nil {
			return fail(fmt.Errorf("-metrics-addr: %w", err))
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "dataplane: serving metrics on http://%s/metrics\n", srv.Addr)
	}
	if *traceOut != "" {
		cfg.TraceSample = traceSample
	}
	// The run's windows reach -telemetry and -residuals here, and only
	// here: each control barrier prints the apps whose prediction
	// diverged, with the diagnosed cause, and keeps what the flags print
	// after the report.
	var samples []runtime.ControlSample
	var series []obs.Residual
	cfg.OnWindow = func(cs runtime.ControlSample, res []obs.Residual) {
		if *telemetry {
			samples = append(samples, cs)
		}
		if !*residuals {
			return
		}
		series = append(series, res...)
		for _, rr := range res {
			if rr.Cause != obs.CauseNone {
				fmt.Fprintf(stderr, "residual t=%.2fms %-10s pred=%.1f%% obs=%.1f%% [%s] %s\n",
					rr.Time*1e3, rr.App, rr.Predicted*100, rr.Observed*100, rr.Cause, rr.Evidence)
			}
		}
	}

	r, err := runtime.NewRuntime(cfg)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	rep, err := r.Run(*duration)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "dataplane: ran %.1f ms virtual in %.2fs host\n",
		rep.Duration*1e3, time.Since(start).Seconds())

	fmt.Fprintln(stdout, rep.String())

	if *residuals {
		printResiduals(stdout, series)
	}
	if *traceOut != "" {
		if err := writeTrace(stderr, *traceOut, r, cfg.Cfg.ClockHz); err != nil {
			return fail(err)
		}
	}

	if *telemetry {
		fmt.Fprintln(stdout, "telemetry samples:")
		for _, cs := range samples {
			for _, w := range cs.Workers {
				app := w.App
				if w.Stages > 1 {
					// A chain worker's ring columns describe its hand-off
					// ring (stage 0 keeps the receive ring).
					app = fmt.Sprintf("%s#%d", w.App, w.Stage)
				}
				mark := ""
				if w.Throttled {
					mark = " THROTTLED"
				}
				fmt.Fprintf(stdout, "  t=%.2fms wkr=%d sock=%d %-10s pps=%.2fM refs/s=%.1fM rem/pkt=%.2f occ=%.2f ring=%d/%d delay=%d pred=%.1f%%%s\n",
					cs.Time*1e3, w.Worker, w.Socket, app, w.PPS/1e6, w.RefsPerSec/1e6,
					w.RemotePerPacket, w.BatchOccupancy, w.RingDepth, w.RingCap, w.DelayCycles,
					w.PredictedDrop*100, mark)
			}
		}
	}
	return 0
}

// printResiduals renders the run's prediction-residual time series:
// the paper's accuracy metric per control window, with each divergence's
// diagnosed cause.
func printResiduals(w io.Writer, res []obs.Residual) {
	if len(res) == 0 {
		fmt.Fprintln(w, "residual series: empty (no profiled apps, or run shorter than one control window)")
		return
	}
	fmt.Fprintln(w, "prediction-residual series:")
	for _, rr := range res {
		line := fmt.Sprintf("  t=%.2fms %-10s pred=%5.1f%% obs=%5.1f%% resid=%+5.1f%% [%s]",
			rr.Time*1e3, rr.App, rr.Predicted*100, rr.Observed*100, rr.Residual*100, rr.Cause)
		if rr.Evidence != "" {
			line += " " + rr.Evidence
		}
		fmt.Fprintln(w, line)
	}
}

// writeTrace exports the run's sampled chain spans (-trace-out implies a
// tracer) as Chrome trace-event JSON (Perfetto / chrome://tracing).
func writeTrace(stderr io.Writer, path string, r *runtime.Runtime, clockHz float64) error {
	t := r.Tracer()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := t.WriteChrome(f, clockHz); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	n := len(t.Events())
	msg := fmt.Sprintf("dataplane: wrote %d trace spans to %s", n, path)
	if d := t.Dropped(); d > 0 {
		msg += fmt.Sprintf(" (%d spans dropped: shorten the run)", d)
	}
	if n == 0 {
		msg += " (no staged chains in this scenario, or no sampled packet completed)"
	}
	fmt.Fprintln(stderr, msg)
	return f.Close()
}

// printProfiles writes one summary line per profiled type, in the order
// of types: the same profiles always render the same text.
func printProfiles(w io.Writer, types []apps.FlowType, profiles map[apps.FlowType]runtime.FlowProfile) {
	for _, t := range types {
		p := profiles[t]
		extra := ""
		if len(p.Elements) > 0 {
			extra = fmt.Sprintf(", %d element baselines", len(p.Elements))
		}
		fmt.Fprintf(w, "  %-8s solo %.2fM pps, %.1fM refs/s, curve %s%s\n",
			t, p.SoloPPS/1e6, p.SoloRefsPerSec/1e6, p.Curve, extra)
	}
}
