package runtime

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
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

func TestOneWorkerGoldens(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, filepath.Join("testdata", name+".golden"), goldenRun(t, cfg))
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

// goldenRun executes cfg with a registry and renders everything the
// control window publishes, one section per surface.
func goldenRun(t *testing.T, cfg Config) []byte {
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
