// Command bench is the repository's benchmark: five fixed workloads run
// in one process, nine end-to-end metrics per workload, and a traced
// pass that times every layer from outside, through its public API.
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-no-trace]
//	         [-out FILE] [-update-golden]
//	go run . -compare A.json B.json
//
// Without -workload it runs all five, untraced then traced, prints every
// metric by name with its unit, checks the outputs and writes
// out/results.json. With -workload and -trace it is the command
// BENCHMARK.json names: one pass over one workload, whose last line of
// standard output is the driver's result object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	gort "runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "the benchmark's directory (default: ., or ./bench from the repository root)")
	workload := fs.String("workload", "", "run one workload (default: all five)")
	seed := fs.Uint64("seed", 1, "seed of everything the harness chooses: template seeds, isolation streams")
	seconds := fs.Float64("seconds", 10, "measuring budget of one pass's timed reps, in seconds")
	trace := fs.Int("trace", -1, "0: untraced pass only, 1: traced pass only (default: both)")
	noTrace := fs.Bool("no-trace", false, "same as -trace 0")
	smoke := fs.Bool("smoke", false, "tiny sizes, for the unit test")
	out := fs.String("out", "", "results file (default: out/results.json in the benchmark's directory)")
	updateGolden := fs.Bool("update-golden", false, "rewrite golden/engine_profile.digest (benchmark PRs only)")
	compare := fs.Bool("compare", false, "compare two results files (or comma-separated lists or globs of them)")
	benchmarkJSON := fs.Bool("benchmark-json", false, "print BENCHMARK.json as the metric tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *benchmarkJSON:
		fmt.Fprintln(stdout, benchmarkFile(int(*seconds)))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two arguments, got %d", fs.NArg()))
		}
		worse, err := compareResults(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if *noTrace {
		*trace = 0
	}
	if *dir == "" {
		*dir = "."
		if _, err := os.Stat("workloads"); err != nil {
			*dir = "bench"
		}
	}
	if _, err := os.Stat(filepath.Join(*dir, "workloads")); err != nil {
		return fail(fmt.Errorf("no workloads/ under %q: run from the benchmark's directory or pass -dir", *dir))
	}

	selected := workloads
	if *workload != "" {
		selected = nil
		for _, w := range workloads {
			if w.Name == *workload {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
	}
	passes := []bool{false, true}
	if *trace == 0 || *trace == 1 {
		passes = []bool{*trace == 1}
	}

	// One reference for the whole process. The smoke size takes single,
	// unwarmed readings: it checks the plumbing, not the numbers.
	rounds, warm := calRounds, 300*time.Millisecond
	if *smoke {
		rounds, warm = 1, 0
	}
	cal := newCalibrator(rounds, warm)

	doc := resultsFile{Provenance: provenance(*dir, *seed, *seconds, *smoke), Workloads: map[string]*workloadResult{}}
	var last *workloadResult
	for _, w := range selected {
		wr := &workloadResult{Seed: *seed, EndToEnd: map[string]metricResult{}, PerLayer: map[string]metricResult{}, Correct: true}
		doc.Workloads[w.Name] = wr
		last = wr
		for _, traced := range passes {
			e := &env{dir: *dir, seed: *seed, seconds: *seconds, smoke: *smoke, traced: traced,
				updateGolden: *updateGolden, cal: cal}
			if traced {
				e.tr = newTracer()
			}
			fmt.Fprintf(stdout, "== %s (seed %d, %s pass) ==\n", w.Name, *seed, passName(traced))
			root := e.tr.begin("pass:" + w.Name)
			r, err := w.run(e)
			root.end()
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.Name, err))
			}
			if err := wr.absorb(r, traced); err != nil {
				return fail(fmt.Errorf("%s: %w", w.Name, err))
			}
			if traced {
				path := filepath.Join(*dir, "out", "trace_"+w.Name+".json")
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					return fail(err)
				}
				if err := writeTrace(path, e.tr.spans); err != nil {
					return fail(err)
				}
			}
			wr.print(stdout, traced)
			for name, sum := range r.files {
				doc.Provenance.Files[name] = sum
			}
		}
	}

	if *out == "" {
		*out = filepath.Join(*dir, "out", "results.json")
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return fail(err)
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return fail(err)
	}

	// The driver's result line: one workload, one pass.
	if len(selected) == 1 && len(passes) == 1 {
		line, err := json.Marshal(last.driverLine(passes[0]))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
	}
	for _, wr := range doc.Workloads {
		if !wr.Correct {
			return 1
		}
	}
	return 0
}

func passName(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

// --- results --------------------------------------------------------

// metricResult is one metric of one workload: the median is the value,
// the rest says how it was arrived at.
type metricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Kind   string  `json:"kind"`
	Bound  float64 `json:"bound,omitempty"`
	summary
	// RawMedian is the clock's own reading of a host time; the median
	// beside it is in reference seconds (see calibrate.go).
	RawMedian float64 `json:"raw_median,omitempty"`
}

type workloadResult struct {
	Seed      uint64                  `json:"seed"`
	Reps      int                     `json:"reps"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	FailShare float64                 `json:"fail_share"`
	Correct   bool                    `json:"correct"`
	Errors    []string                `json:"errors,omitempty"`
	Digest    string                  `json:"digest,omitempty"`
	Speed     float64                 `json:"machine_speed"` // median calibration reading of the untraced pass; 1 = the quiet reference box
	EndToEnd  map[string]metricResult `json:"end_to_end"`
	PerLayer  map[string]metricResult `json:"per_layer"`
}

// absorb folds one pass into the workload's result. End-to-end metrics
// come from the untraced pass only, per-layer metrics from the traced
// one; a declared metric the pass did not produce, or a value that is
// not a finite number, is an error in the harness, not a measurement.
func (wr *workloadResult) absorb(r *result, traced bool) error {
	defs, into := endToEnd, wr.EndToEnd
	if traced {
		defs, into = perLayer, wr.PerLayer
	} else {
		wr.Reps = r.reps
		wr.Speed = median(r.samples[keySpeed])
	}
	for _, d := range defs {
		s := summarize(r.samples[d.Name])
		if s.N == 0 {
			return fmt.Errorf("metric %s: no samples", d.Name)
		}
		if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			return fmt.Errorf("metric %s: median %v is not finite", d.Name, s.Median)
		}
		into[d.Name] = metricResult{Unit: d.Unit, Better: d.Better, Kind: d.Kind, Bound: d.Bound, summary: s,
			RawMedian: median(r.raw[d.Name])}
	}
	wr.Attempted += r.attempted
	wr.Failed += r.failed
	wr.Errors = append(wr.Errors, r.errors...)
	if r.digest != "" {
		wr.Digest = r.digest
	}
	wr.FailShare = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	wr.Correct = wr.Correct && r.failed == 0 && r.attempted > 0
	return nil
}

func (wr *workloadResult) print(w io.Writer, traced bool) {
	defs, from := endToEnd, wr.EndToEnd
	if traced {
		defs, from = perLayer, wr.PerLayer
	}
	for _, d := range defs {
		m := from[d.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-10s %-9s n=%-3d", d.Name, m.Median, m.Unit, m.Kind, m.N)
		if m.N > 1 {
			fmt.Fprintf(w, " min %.6g q1 %.6g q3 %.6g max %.6g", m.Min, m.Q1, m.Q3, m.Max)
		}
		if m.RawMedian != 0 {
			fmt.Fprintf(w, " (clock read %.6g)", m.RawMedian)
		}
		fmt.Fprintln(w)
	}
	if !traced {
		fmt.Fprintf(w, "  %-34s %14.6g %-10s %-9s host times above are in reference seconds: clock x this\n", "machine_speed", wr.Speed, "ratio", "host")
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-10s %-9s failed %d of %d operations\n", "fail_share", wr.FailShare, "fraction", "check", wr.Failed, wr.Attempted)
	if wr.Digest != "" {
		fmt.Fprintf(w, "  %-34s %s\n", "digest", wr.Digest)
	}
	for _, msg := range wr.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", msg)
	}
}

// driverLine is the object the driver reads from the last line of
// standard output.
func (wr *workloadResult) driverLine(traced bool) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	from := wr.EndToEnd
	if traced {
		from = wr.PerLayer
	}
	metrics := map[string]value{}
	for name, m := range from {
		metrics[name] = value{m.Median, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics}
}

// --- provenance -----------------------------------------------------

type provenanceBlock struct {
	GitRev     string            `json:"git_rev"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	CPUModel   string            `json:"cpu_model"`
	Scale      string            `json:"scale"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Files      map[string]string `json:"workload_files_sha256"`
}

type resultsFile struct {
	Provenance provenanceBlock            `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func provenance(dir string, seed uint64, seconds float64, smoke bool) provenanceBlock {
	p := provenanceBlock{
		GitRev: "unknown", GoVersion: gort.Version(), GOMAXPROCS: gort.GOMAXPROCS(0), NumCPU: gort.NumCPU(),
		CPUModel: "unknown", Scale: "quick; runtime_fullscale at full", Seed: seed, Seconds: seconds,
		Files: map[string]string{},
	}
	if smoke {
		p.Scale = "smoke"
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if rev, err := exec.Command("git", "-C", dir, "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.GitRev = strings.TrimSpace(string(rev))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return p
}

// --- BENCHMARK.json -------------------------------------------------

// benchmarkFile renders the driver's contract from the metric tables.
func benchmarkFile(runSeconds int) string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers: cannot fail
	}
	return string(data)
}
