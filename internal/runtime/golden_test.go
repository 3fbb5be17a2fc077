package runtime

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
	"pktpredict/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// A one-worker runtime has no peer to race with, so its run is a pure
// function of its configuration: the goldens below pin every number the
// control window produces — the report, the sample stream OnWindow sees,
// the residual series, the element baselines and the full Prometheus
// exposition — byte for byte. A refactor of the barrier must not move
// them; a change that means to says which number moved and regenerates
// with `go test ./internal/runtime/ -run TestOneWorkerGoldens -args -update`.
//
// The files are the output of commit 376e2e5, before the control window
// became one value. One thing is compared modulo order: the series lines
// within an exposition family. The registry lists series in creation
// order; 376e2e5 created an element's series in the first window the
// element accrued cost (Control, idle until admission first throttles,
// came last), and worker.bind now creates a stage's element series
// together, in table-slot order.
func goldenConfigs() map[string]Config {
	// Ring-fed paced MON with a latency SLO, a hand-built profile with a
	// curve (live prediction, residuals) and element baselines low enough
	// that the drift detector names an element.
	mon := testConfig([]AppSpec{{Name: "mon", Type: apps.MON, Workers: 1, Rate: 3.6e6, SLOP99US: 60}})
	mon.Profiles = map[apps.FlowType]FlowProfile{apps.MON: {
		SoloPPS: 4e6, SoloRefsPerSec: 9e6,
		Curve: core.Curve{Target: apps.MON, Points: []core.CurvePoint{
			{CompetingRefsPerSec: 0, Drop: 0.01},
			{CompetingRefsPerSec: 5e7, Drop: 0.2},
		}},
		Elements: map[string]ElemBaseline{
			overheadElem:      {CyclesPerPacket: 90, RefsPerPacket: 0.25},
			"CheckIPHeader@1": {CyclesPerPacket: 100, RefsPerPacket: 1},
			"RadixIPLookup@2": {CyclesPerPacket: 290, RefsPerPacket: 4.5},
			"DecIPTTL@3":      {CyclesPerPacket: 27, RefsPerPacket: 0},
			"NetFlow@4":       {CyclesPerPacket: 280, RefsPerPacket: 1.5},
			"ToDevice@5":      {CyclesPerPacket: 56, RefsPerPacket: 0.25},
		},
	}}

	// A synthetic source: one raw stage, no ring, no pipeline, no residual.
	syn := testConfig([]AppSpec{{Name: "syn", Type: apps.SYN, Workers: 1, SynCompute: 40}})

	// Admission control against a profiled limit the flow exceeds, so the
	// controller throttles and the delay shows in samples and report.
	adm := testConfig([]AppSpec{{Name: "fw", Type: apps.FW, Workers: 1, Control: true}})
	adm.Admission = true
	adm.Profiles = map[apps.FlowType]FlowProfile{apps.FW: {SoloPPS: 4e5, SoloRefsPerSec: 1e6}}

	return map[string]Config{"mon_paced_slo": mon, "syn": syn, "fw_admission": adm}
}

// TestOneWorkerGoldens runs each configuration under both barrier
// drivers against the same file: with one worker there is nothing to
// race, so the goroutine driver must reproduce the in-line one byte for
// byte — the check on the driver production runs.
func TestOneWorkerGoldens(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, inline := range []bool{false, true} {
				t.Run(fmt.Sprintf("inline=%t", inline), func(t *testing.T) {
					checkGolden(t, filepath.Join("testdata", name+".golden"), goldenRun(t, cfg, inline))
				})
			}
		})
	}
}

// checkGolden compares got with the file at path, series lines sorted on
// both sides; under -update it rewrites the file with got instead.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want = sortSeries(got), sortSeries(want); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", path, len(gl), len(wl))
	}
}

// sortSeries sorts each exposition family's series lines (the runs of
// lines between "# " headers after the "== exposition" marker).
func sortSeries(text []byte) []byte {
	head, expo, _ := bytes.Cut(text, []byte("== exposition\n"))
	lines := strings.Split(string(expo), "\n")
	for i := 0; i < len(lines); {
		j := i
		for j < len(lines) && !strings.HasPrefix(lines[j], "# ") {
			j++
		}
		sort.Strings(lines[i:j])
		i = j + 1
	}
	return append(head, strings.Join(lines, "\n")...)
}

// goldenRun executes cfg with a registry, on the in-line driver or the
// goroutine one, and renders everything the control window publishes, one
// section per surface.
func goldenRun(t *testing.T, cfg Config, inline bool) []byte {
	t.Helper()
	var out bytes.Buffer
	section := func(title string, v any) {
		fmt.Fprintf(&out, "== %s\n", title)
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	var windows [][]obs.Residual
	cfg.OnWindow = func(_ ControlSample, res []obs.Residual) { windows = append(windows, res) }
	wins := CaptureWindows(&cfg)
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.inline = inline
	rep, err := r.Run(0.002)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	// The goldens predate the one window stream: the report then ended
	// with the residual series, and a ring held the last sample.
	section("report", struct {
		*Report
		Residuals []obs.Residual
	}{rep, wins.Residuals})
	section("samples", wins.Samples)
	section("window residuals", windows)
	section("residuals", wins.Residuals)
	section("element baselines", r.ElementBaselines())
	section("stats latest", wins.Latest())
	out.WriteString("== exposition\n")
	if err := reg.Snapshot().WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// intGolden renders what a run left behind as integers only, one fact
// per line, so a diff names what moved: every integer field of the
// Report (apps and their branches, workers, migrations and their state
// copies, throttle events, quanta), each worker's final hw.Counters, the
// per-element cycle and reference sums and each app's latency-histogram
// bucket counts over the measured interval.
func intGolden(r *Runtime, rep *Report) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "report%s migrations %d\n", intFields(*rep), len(rep.Migrations))
	for _, a := range rep.Apps {
		fmt.Fprintf(&b, "app%s\n", intFields(a))
		for _, br := range a.Branches {
			fmt.Fprintf(&b, "  branch%s\n", intFields(br))
		}
	}
	for _, w := range rep.Workers {
		fmt.Fprintf(&b, "worker%s\n", intFields(w))
	}
	for _, m := range rep.Migrations {
		fmt.Fprintf(&b, "migration%s\n  copy A%s\n  copy B%s\n", intFields(m), intFields(m.CopyA), intFields(m.CopyB))
	}
	for _, w := range r.workers {
		fmt.Fprintf(&b, "counters worker %d", w.id)
		w.core.Counters.Each(func(name string, v uint64) { fmt.Fprintf(&b, " %s %d", name, v) })
		b.WriteByte('\n')
		// By name: a function's id depends on when it was first registered.
		var funcs []string
		for id, fc := range w.core.Counters.Func {
			if fc != (hw.FuncCounters{}) {
				funcs = append(funcs, fmt.Sprintf("  func %s%s\n", hw.FuncName(hw.FuncID(id)), intFields(fc)))
			}
		}
		sort.Strings(funcs)
		b.WriteString(strings.Join(funcs, ""))
	}
	tot := r.total()
	for _, f := range r.flows {
		for s, sd := range tot.flows[f.id].stages {
			for i, c := range sd.elems {
				if c.Cycles != 0 || c.L3Refs != 0 {
					fmt.Fprintf(&b, "element %s stage %d %s cycles %d l3_refs %d\n", flowName(f), s, f.elemName(i), c.Cycles, c.L3Refs)
				}
			}
		}
	}
	for i, a := range r.disp.apps {
		fmt.Fprintf(&b, "latency %s%s\n", a.spec.Name, latBuckets(&tot.apps[i].lat))
	}
	return b.Bytes()
}

// intFields renders v's integer, bool and string fields in declaration
// order as " Name value" pairs: everything but its floats and nested values.
func intFields(v any) string {
	var b strings.Builder
	rv := reflect.ValueOf(v)
	for i := range rv.NumField() {
		f, name := rv.Field(i), rv.Type().Field(i).Name
		switch {
		case f.CanInt():
			fmt.Fprintf(&b, " %s %d", name, f.Int())
		case f.CanUint():
			fmt.Fprintf(&b, " %s %d", name, f.Uint())
		case f.Kind() == reflect.Bool:
			fmt.Fprintf(&b, " %s %t", name, f.Bool())
		case f.Kind() == reflect.String:
			fmt.Fprintf(&b, " %s %q", name, f.String())
		}
	}
	return b.String()
}

// latBuckets renders h's non-empty buckets as " lo:count", read through
// CountOver at obs.LatHist's bucket bounds: one bucket below 64 cycles,
// eight per octave up to 2^30, and one above.
func latBuckets(h *obs.LatHist) string {
	var b strings.Builder
	lo, above := uint64(0), h.Count()
	for hi := uint64(64); above > 0; hi += 1 << (bits.Len64(hi) - 4) {
		var over uint64
		if hi <= 1<<30 {
			over = h.CountOver(hi)
		}
		if n := above - over; n > 0 {
			fmt.Fprintf(&b, " %d:%d", lo, n)
		}
		lo, above = hi, over
	}
	return b.String()
}
