package runtime

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/obs"
)

// TestRuntimeMetricsScrapeMidRun scrapes the exposition endpoint while
// the dataplane is running (workers mid-quantum) and checks the page
// carries the runtime's families. Run under -race this also proves the
// barrier's publication and the snapshot reader do not race.
func TestRuntimeMetricsScrapeMidRun(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig([]AppSpec{
		{Name: "ipfwd", Type: apps.IP, Workers: 2},
		{Name: "mon", Type: apps.MON, Workers: 1},
	})
	cfg.Metrics = reg
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()

	scrape := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("scrape %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return body
	}

	done := make(chan *Report, 1)
	go func() {
		rep, err := r.Run(0.004)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	// Scrape continuously until the run finishes: most scrapes land while
	// workers are actively publishing.
	var last []byte
	var rep *Report
	for rep == nil {
		select {
		case rep = <-done:
		default:
			last = scrape("/metrics")
		}
	}
	if rep == nil {
		t.Fatal("run produced no report")
	}
	checkConservation(t, rep)
	if len(last) == 0 {
		t.Fatal("no scrape completed during the run")
	}

	final := string(scrape("/metrics"))
	for _, want := range []string{
		"# TYPE dataplane_worker_packets_total counter",
		"# TYPE dataplane_worker_batch_polls_total counter",
		"# TYPE dataplane_worker_batch_filled_total counter",
		"# TYPE dataplane_worker_pps gauge",
		`dataplane_worker_packets_total{worker="0"}`,
		`dataplane_worker_hw_total{worker="0",counter="l3_refs"}`,
		`dataplane_app_offered_total{app="ipfwd"}`,
		`dataplane_worker_app{worker="2",app="mon",stage="0"} 1`,
		"# TYPE dataplane_element_cycles_total counter",
		"# TYPE dataplane_element_l3_refs_total counter",
		"# TYPE dataplane_element_cycles_per_packet gauge",
		`element="overhead"`,
		`dataplane_app_latency_cycles{app="ipfwd",quantile="0.99"}`,
		"# TYPE dataplane_app_drift_ratio gauge",
	} {
		if !strings.Contains(final, want) {
			t.Fatalf("final scrape missing %q:\n%s", want, final)
		}
	}

	// JSON endpoint agrees and is valid.
	var snap obs.Snapshot
	if err := json.Unmarshal(scrape("/metrics.json"), &snap); err != nil {
		t.Fatalf("metrics.json did not parse: %v", err)
	}
	var packets float64
	for _, f := range snap.Families {
		if f.Name != "dataplane_worker_packets_total" {
			continue
		}
		for _, s := range f.Series {
			packets += s.Value
		}
	}
	// The counter is published at barriers from measurement start, the
	// interval the report covers.
	var total uint64
	for _, w := range rep.Workers {
		total += w.TotalPackets
	}
	if uint64(packets) != total {
		t.Fatalf("packet counter %v, want the reported total %d", packets, total)
	}
}

// TestRuntimeChainTraceExport runs a staged chain with packet sampling
// and checks the recorded spans: every sampled packet has a span per
// stage, the consumer's span starts after the producer's ends (the gap
// is the charged hand-off cost), and the Chrome export is valid JSON
// with the expected event shapes.
func TestRuntimeChainTraceExport(t *testing.T) {
	params := withCustom(apps.Small(), "MONC", monStyleGraph(apps.Small()), map[string]int{"nf": 1})
	cfg := testConfig([]AppSpec{{Name: "monc", Type: "MONC", Workers: 1}})
	cfg.Params = params
	cps := testCfg().CoresPerSocket
	cfg.Cores = []int{0, cps}
	cfg.TraceSample = 64
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)

	tr := r.Tracer()
	if tr == nil {
		t.Fatal("TraceSample set but Tracer() is nil")
	}
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("staged run recorded no trace spans")
	}
	byTrace := map[uint64]map[int]obs.TraceEvent{}
	for _, ev := range events {
		if ev.Trace == 0 {
			t.Fatalf("recorded span without trace ID: %+v", ev)
		}
		if ev.End < ev.Start {
			t.Fatalf("span ends before it starts: %+v", ev)
		}
		if byTrace[ev.Trace] == nil {
			byTrace[ev.Trace] = map[int]obs.TraceEvent{}
		}
		byTrace[ev.Trace][ev.Stage] = ev
	}
	complete := 0
	for id, stages := range byTrace {
		s0, ok0 := stages[0]
		s1, ok1 := stages[1]
		if !ok0 {
			t.Fatalf("trace %d has a stage-1 span but no stage-0 span", id)
		}
		if !ok1 {
			continue // sampled packet still in flight at run end
		}
		complete++
		if s0.Tid == s1.Tid {
			t.Fatalf("trace %d executed both stages on worker %d", id, s0.Tid)
		}
		if !s0.Enqueued || !s1.Dequeued {
			t.Fatalf("trace %d hand-off flags wrong: stage0 enq=%v, stage1 deq=%v",
				id, s0.Enqueued, s1.Dequeued)
		}
		// The virtual-time gap between the producer's span end and the
		// consumer's span start is the packet's hand-off: ring residence
		// plus the charged descriptor traffic. With lax clock sync the two
		// core clocks can skew by at most one quantum, so the consumer
		// must start no earlier than one quantum before the producer ends.
		if s1.Start+cfg.QuantumCycles < s0.End {
			t.Fatalf("trace %d: stage 1 starts at %d, more than a quantum before stage 0 ends at %d",
				id, s1.Start, s0.End)
		}
	}
	if complete == 0 {
		t.Fatal("no sampled packet completed both stages")
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, cfg.Cfg.ClockHz); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range doc.TraceEvents {
		kinds[ev["ph"].(string)]++
	}
	if kinds["X"] != len(events) {
		t.Fatalf("export has %d spans for %d recorded events", kinds["X"], len(events))
	}
	if kinds["M"] == 0 || kinds["s"] == 0 || kinds["f"] == 0 {
		t.Fatalf("export missing metadata or flow events: %v", kinds)
	}
}

// TestRuntimeResidualSeries runs a profiled mix and checks the
// prediction-residual time series: one point per (window, profiled app),
// internally consistent, with causes from the diagnoser's vocabulary.
func TestRuntimeResidualSeries(t *testing.T) {
	params := apps.Small()
	ipSolo := soloStats(t, apps.IP, params)
	monSolo := soloStats(t, apps.MON, params)
	cfg := testConfig([]AppSpec{
		{Name: "ipfwd", Type: apps.IP, Workers: 2},
		{Name: "mon", Type: apps.MON, Workers: 1},
	})
	cfg.Profiles = map[apps.FlowType]FlowProfile{
		apps.IP:  {SoloPPS: ipSolo.Throughput(), SoloRefsPerSec: ipSolo.L3RefsPerSec()},
		apps.MON: {SoloPPS: monSolo.Throughput(), SoloRefsPerSec: monSolo.L3RefsPerSec()},
	}
	cfg.OnWindow = func(cs ControlSample, res []obs.Residual) {
		if len(res) != 2 {
			t.Errorf("window at q%d has %d residuals, want 2 (one per profiled app)", cs.Quantum, len(res))
		}
	}
	wins := CaptureWindows(&cfg)
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	windows := len(wins.Samples)
	if windows == 0 {
		t.Fatal("OnWindow never fired")
	}
	if len(wins.Residuals) != 2*windows {
		t.Fatalf("series has %d residuals, want %d (2 apps x %d windows)",
			len(wins.Residuals), 2*windows, windows)
	}
	valid := map[obs.Cause]bool{
		obs.CauseNone: true, obs.CauseNUMA: true, obs.CauseRing: true,
		obs.CauseL3: true, obs.CauseBetter: true, obs.CauseUnknown: true,
	}
	seen := map[string]bool{}
	for _, rr := range wins.Residuals {
		seen[rr.App] = true
		if !valid[rr.Cause] {
			t.Fatalf("residual carries unknown cause %q", rr.Cause)
		}
		if got := rr.Observed - rr.Predicted; got != rr.Residual {
			t.Fatalf("residual %v != observed %v - predicted %v", rr.Residual, rr.Observed, rr.Predicted)
		}
		if rr.Cause != obs.CauseNone && rr.Evidence == "" {
			t.Fatalf("diagnosed cause %s has no evidence string", rr.Cause)
		}
	}
	if !seen["ipfwd"] || !seen["mon"] {
		t.Fatalf("residual series missing an app: %v", seen)
	}
}

// TestHandoffPollCounter: the ring's poll counter observes spin-waits.
func TestHandoffPollCounter(t *testing.T) {
	params := withCustom(apps.Small(), "MONC", monStyleGraph(apps.Small()), map[string]int{"nf": 1})
	reg := obs.NewRegistry()
	cfg := testConfig([]AppSpec{{Name: "monc", Type: "MONC", Workers: 1}})
	cfg.Params = params
	cfg.Metrics = reg
	cps := testCfg().CoresPerSocket
	cfg.Cores = []int{0, cps}
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0.004); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	page := out.String()
	for _, want := range []string{
		"dataplane_handoff_fill{", "dataplane_handoff_polls_total{",
		"dataplane_worker_spin_polls_total{",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("exposition missing %q:\n%s", want, firstLines(page, 40))
		}
	}
}

// TestSwapSupersedesPendingMeasurement swaps the same two workers twice
// at one barrier, before any window can measure the first swap: the
// first migration's post-swap measurement belongs to a binding that no
// longer exists, so it keeps its NaN after-rates, while the second's
// land from the windows that follow.
func TestSwapSupersedesPendingMeasurement(t *testing.T) {
	cfg := testConfig([]AppSpec{
		{Name: "ipfwd", Type: apps.IP, Workers: 1},
		{Name: "mon", Type: apps.MON, Workers: 1},
	})
	var r *Runtime
	cfg.OnWindow = func(ControlSample, []obs.Residual) {
		if len(r.migrations) == 0 {
			r.swap(0, 1, &r.win, 0)
			r.swap(0, 1, &r.win, 0)
		}
	}
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 2 {
		t.Fatalf("%d migrations, want 2", len(rep.Migrations))
	}
	if first := rep.Migrations[0]; !math.IsNaN(first.RemotePerPktAfterA) || !math.IsNaN(first.RemotePerPktAfterB) {
		t.Fatalf("superseded migration measured after-rates %v/%v, want NaN", first.RemotePerPktAfterA, first.RemotePerPktAfterB)
	}
	if second := rep.Migrations[1]; math.IsNaN(second.RemotePerPktAfterA) || math.IsNaN(second.RemotePerPktAfterB) {
		t.Fatalf("second migration's after-rates %v/%v never landed", second.RemotePerPktAfterA, second.RemotePerPktAfterB)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestSwapRebindsHandles forces a re-placement at a barrier and checks
// the handles worker.bind re-resolved: each worker's old
// dataplane_worker_app series drops to 0 as its new one goes to 1, and
// the moved flows' element costs continue under their new worker label.
func TestSwapRebindsHandles(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig([]AppSpec{
		{Name: "ipfwd", Type: apps.IP, Workers: 1},
		{Name: "mon", Type: apps.MON, Workers: 1},
	})
	cfg.Metrics = reg
	var r *Runtime
	cfg.OnWindow = func(ControlSample, []obs.Residual) {
		if len(r.migrations) == 0 {
			r.swap(0, 1, &r.win, 0) // workers are parked: this is the barrier
		}
	}
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	series := map[string]float64{}
	for _, f := range reg.Snapshot().Families {
		for _, s := range f.Series {
			series[f.Name+"{"+strings.Join(s.LabelValues, ",")+"}"] = s.Value
		}
	}
	for key, want := range map[string]float64{
		"dataplane_worker_app{0,ipfwd,0}": 0,
		"dataplane_worker_app{1,mon,0}":   0,
		"dataplane_worker_app{0,mon,0}":   1,
		"dataplane_worker_app{1,ipfwd,0}": 1,
		"dataplane_migrations_total{}":    1,
	} {
		if got, ok := series[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	for _, key := range []string{
		"dataplane_element_cycles_total{overhead,mon,0,0}",
		"dataplane_element_cycles_total{overhead,ipfwd,0,1}",
	} {
		if series[key] == 0 {
			t.Errorf("%s = 0: the moved flow's element costs did not follow it to its new worker", key)
		}
	}
}
