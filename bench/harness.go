package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pktpredict/internal/exp"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
)

// env is one pass over one workload: where the files are, what the
// driver asked for, and the tracer when the pass is the traced one.
type env struct {
	dir          string // the benchmark's directory: workloads/, golden/, out/
	seed         uint64
	seconds      float64 // measuring budget of the timed reps
	smoke        bool    // bench_test.go's size: everything tiny
	traced       bool
	updateGolden bool

	tr  *tracer     // non-nil while a traced rep or an isolation records spans
	cal *calibrator // the machine-speed reference
}

// result collects what one pass measured.
type result struct {
	samples   map[string][]float64
	raw       map[string][]float64 // host times as the clock read them, before calibration
	attempted int
	failed    int
	errors    []string
	digest    string            // engine_profile's counter digest
	reps      int               // timed reps
	files     map[string]string // workload file -> sha256 of the template
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, raw: map[string][]float64{}, files: map[string]string{}}
}

func (r *result) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// op counts one checked operation; a failed one keeps its reason.
func (r *result) op(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.errors) < 16 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// Internal sample keys, not published as metrics.
const (
	keyRepTraced   = "_rep_s.traced"
	keyRepUntraced = "_rep_s.untraced"
	keySpeed       = "_machine_speed"
)

// hostTimes are the end-to-end metrics reported in reference seconds.
var hostTimes = []string{"setup_s", "rep_s", "build_s", "host_ns_per_pkt"}

// calibrate converts the host-time samples added since the last call to
// reference seconds, keeping the clock's reading: a sample is still in
// clock seconds exactly when it has no raw twin yet.
func (r *result) calibrate(speed float64) {
	for _, k := range hostTimes {
		for i := len(r.raw[k]); i < len(r.samples[k]); i++ {
			r.raw[k] = append(r.raw[k], r.samples[k][i])
			r.samples[k][i] *= speed
		}
	}
	r.add(keySpeed, speed)
}

// beginSetup opens the set-up span after a speed reading; endSetup
// records setup_s against the mean of that reading and one taken after.
func (e *env) beginSetup() timer {
	e.cal.speed(e.tr)
	return e.tr.begin("setup")
}

func (e *env) endSetup(r *result, setup timer) {
	before := e.cal.last
	r.add("setup_s", setup.end().Seconds())
	r.calibrate((before + e.cal.speed(e.tr)) / 2)
}

// loadScenario parses scenario text and assembles it on a scale.
func loadScenario(text string, scale exp.Scale) (runtime.Config, error) {
	sc, err := scenario.Parse(text)
	if err != nil {
		return runtime.Config{}, err
	}
	return sc.Config(scale.Cfg, scale.Params)
}

// quick returns the reduced scale four of the five workloads and every
// profiling isolation run on. The smoke size shortens its windows and
// sweep grid further so the unit test finishes in seconds.
func (e *env) quick() exp.Scale {
	s := exp.Quick()
	if e.smoke {
		s.Warmup, s.Window, s.SweepGrid = 0.00002, 0.0001, []int{0}
	}
	return s
}

// sigSeed derives the IDS signature-set seed from the harness seed; at
// the default seed it is the 11 the shipped scenario files use.
func (e *env) sigSeed() uint64 { return e.seed + 10 }

// template reads a workload file and substitutes the seed placeholders.
// The hash of the file as committed goes into the provenance block.
func (e *env) template(r *result, name string) (string, error) {
	data, err := os.ReadFile(filepath.Join(e.dir, "workloads", name))
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(data)
	r.files[name] = hex.EncodeToString(h[:])
	text := strings.ReplaceAll(string(data), "{{SEED}}", strconv.FormatUint(e.seed, 10))
	return strings.ReplaceAll(text, "{{SIG_SEED}}", strconv.FormatUint(e.sigSeed(), 10)), nil
}

// measure runs the workload's timed reps until the budget is spent, and
// at least three of them. The traced pass alternates untraced and traced
// reps (at least two pairs), so the cost of recording spans is read off
// adjacent pairs that share whatever the machine was doing at the time,
// not off two runs minutes apart.
func (e *env) measure(r *result, rep func(i int) (seconds float64, err error)) error {
	minReps := 3
	switch {
	case e.smoke && e.traced:
		minReps = 2
	case e.smoke:
		minReps = 1
	case e.traced:
		minReps = 4
	}
	tr := e.tr
	defer func() { e.tr = tr }()
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < e.seconds || e.traced && i%2 == 1; i++ {
		key := "rep_s"
		if e.traced {
			key = keyRepUntraced
			e.tr = nil
			if i%2 == 1 {
				key = keyRepTraced
				e.tr = tr
				tr.rep = i
			}
		}
		before := e.cal.last
		t := e.tr.begin("rep")
		s, err := rep(i)
		t.end()
		if err != nil {
			return err
		}
		r.add(key, s)
		r.calibrate((before + e.cal.speed(e.tr)) / 2)
		if tr != nil {
			tr.rep = -1
		}
		r.reps++
	}
	return nil
}

// memStats reads the allocator's counters; callers difference two reads.
func memStats() gort.MemStats {
	var m gort.MemStats
	gort.ReadMemStats(&m)
	return m
}

const mib = 1 << 20

// liveHeapMB reads the live heap after a collection, the calibration
// tables left out. Whatever the caller built must still be reachable.
func (e *env) liveHeapMB() float64 {
	gort.GC()
	return float64(memStats().HeapAlloc-e.cal.heapBytes()) / mib
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// workDir makes a private scratch directory under out/ for files a layer
// must read from disk (sweep grids, the profile cache).
func (e *env) workDir(prefix string) (string, error) {
	out := filepath.Join(e.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, prefix+"-")
}
