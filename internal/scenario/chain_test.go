package scenario

import (
	"reflect"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
)

// TestStagedGraphRoundTrip is the stage-cut grammar contract: the graph
// body, stage statements included, is kept verbatim, so parse → render →
// parse is a fixed point, and the custom flow type the runtime gets is
// that text, its stage count read off the parsed graph.
func TestStagedGraphRoundTrip(t *testing.T) {
	text := `
		scenario :: Scenario(NAME cut, MIN_SOCKETS 2);
		graph CHAIN {
			src :: FromDevice(SIZE 64);
			a :: Counter;
			b :: Counter;
			c :: Counter;
			out :: ToDevice;
			src -> a -> b -> c -> out;
			stage 1: b;
			stage 2: c, out;
		}
		chain :: Flow(GRAPH CHAIN, WORKERS 2);
	`
	s1, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	body := text[strings.Index(text, "{")+1 : strings.Index(text, "}")]
	if s1.Graphs[0].Config != body {
		t.Fatalf("graph body not kept verbatim:\n%s", s1.Graphs[0].Config)
	}
	s2, err := Parse(s1.Render())
	if err != nil {
		t.Fatalf("re-parse: %v\n--- rendered ---\n%s", err, s1.Render())
	}
	if !reflect.DeepEqual(s1, s2) || s1.Render() != s2.Render() {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v", s2, s1)
	}

	cfg, err := s1.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	if cf := cfg.Params.Custom[apps.FlowType("CHAIN")]; cf.Config != body {
		t.Fatalf("custom flow is not the graph's text:\n%s", cf.Config)
	}
	if got := cfg.Params.Stages("CHAIN"); got != 3 {
		t.Fatalf("Params.Stages = %d, want 3", got)
	}
	inst, err := cfg.Params.Build("CHAIN", memArena(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 0, "b": 1, "c": 2, "out": 2}
	for _, n := range inst.Pipeline.Nodes() {
		if n.Stage != want[n.Name] {
			t.Fatalf("node %s built in stage %d, want %d", n.Name, n.Stage, want[n.Name])
		}
	}
}

// TestStagedGraphRoundTripDanglingStatement: a graph body whose last
// Click statement lacks its ';' (and whose stage statement sits in the
// middle) renders and re-parses stably, cut where it says.
func TestStagedGraphRoundTripDanglingStatement(t *testing.T) {
	text := `scenario :: Scenario(NAME dangle);
graph G {
	src :: FromDevice;
	fw :: Counter;
	src -> CheckIPHeader -> fw;
	stage 1: fw;
	fw -> ToDevice
}
g :: Flow(GRAPH G);`
	s1, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(s1.Render())
	if err != nil {
		t.Fatalf("re-parse: %v\n--- rendered ---\n%s", err, s1.Render())
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v\n--- rendered ---\n%s", s2, s1, s1.Render())
	}
	g, err := click.Parse(s2.Graphs[0].Config)
	if err != nil || g.NumStages() != 2 {
		t.Fatalf("stage statement lost: %d stages, err %v", g.NumStages(), err)
	}
}

func TestStageGrammarErrors(t *testing.T) {
	mk := func(body string) string {
		return "scenario :: Scenario(NAME x);\ngraph G {\nsrc :: FromDevice;\nfw :: Counter;\nsrc -> fw -> ToDevice;\n" +
			body + "\n}\ng :: Flow(GRAPH G);"
	}
	cases := []struct{ name, text, wantSub string }{
		{"no colon", mk("stage 1 fw;"), "wants"},
		{"bad number", mk("stage 1x: fw;"), "bad stage number"},
		{"no elements", mk("stage 1: ;"), "names no elements"},
		{"two stages", mk("stage 1: fw; stage 2: fw;"), "two stages"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.text)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// TestElementNamedStageIsNotADeclaration: only `stage <number>:` is the
// cut grammar; an element that happens to be called stage stays ordinary
// Click text.
func TestElementNamedStageIsNotADeclaration(t *testing.T) {
	text := `scenario :: Scenario(NAME s);
graph G {
	src :: FromDevice;
	stage :: Counter;
	src -> stage -> ToDevice;
}
g :: Flow(GRAPH G);`
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Params.Stages("G"); got != 1 {
		t.Fatalf("element named stage parsed as a stage statement: %d stages", got)
	}
	if _, err := cfg.Params.Build("G", memArena(), 1); err != nil {
		t.Fatalf("graph with element named stage does not build: %v", err)
	}
}

// TestStagedNatChainRunsEndToEnd drives the shipped staged scenario the
// same way `cmd/dataplane -scenario` does: load, assemble, run, and report
// per-stage workers with packet conservation intact.
func TestStagedNatChainRunsEndToEnd(t *testing.T) {
	s := loadShipped(t, "nat_chain_staged")
	cfg, err := s.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg.QuantumCycles = 100_000
	cfg.ControlEvery = 4
	cfg.Warmup = 0.0003
	var samples []runtime.ControlSample
	cfg.OnWindow = func(cs runtime.ControlSample, _ []obs.Residual) { samples = append(samples, cs) }
	r, err := runtime.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	var nat *runtime.AppReport
	for i := range rep.Apps {
		if err := rep.Apps[i].CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if rep.Apps[i].Name == "natfw" {
			nat = &rep.Apps[i]
		}
	}
	if nat == nil {
		t.Fatal("no natfw app in report")
	}
	if nat.Stages != 2 || nat.Workers != 2 {
		t.Fatalf("natfw stages/workers = %d/%d, want 2/2", nat.Stages, nat.Workers)
	}
	if nat.Processed == 0 || nat.Finished == 0 {
		t.Fatalf("staged chain made no progress: %+v", nat)
	}
	// Per-stage worker rows: stage 0 on socket 0, stage 1 on socket 1
	// (the scenario's PLACE), each reporting packets and occupancy.
	var st0, st1 *runtime.WorkerReport
	for i := range rep.Workers {
		w := &rep.Workers[i]
		if w.App != "natfw" {
			continue
		}
		switch w.Stage {
		case 0:
			st0 = w
		case 1:
			st1 = w
		}
	}
	if st0 == nil || st1 == nil {
		t.Fatalf("missing per-stage worker rows: %+v", rep.Workers)
	}
	if st0.Socket != 0 || st1.Socket != 1 {
		t.Fatalf("stage placement: stage0 socket %d, stage1 socket %d, want 0/1", st0.Socket, st1.Socket)
	}
	for _, w := range []*runtime.WorkerReport{st0, st1} {
		if w.Packets == 0 || w.PPS <= 0 {
			t.Fatalf("stage %d worker idle: %+v", w.Stage, w)
		}
		if w.BatchOccupancy < 0 || w.BatchOccupancy > 1 {
			t.Fatalf("stage %d occupancy %v outside [0,1]", w.Stage, w.BatchOccupancy)
		}
	}
	// The rendered report carries the stage column.
	if !strings.Contains(rep.String(), "0/2") || !strings.Contains(rep.String(), "1/2") {
		t.Fatalf("report does not render per-stage rows:\n%s", rep.String())
	}
	// Per-stage telemetry in the control samples: the stage-1 worker's
	// ring columns describe its hand-off ring.
	saw := false
	for _, cs := range samples {
		for _, wt := range cs.Workers {
			if wt.App == "natfw" && wt.Stage == 1 && wt.RingCap > 0 {
				saw = true
			}
		}
	}
	if !saw {
		t.Fatal("no control sample reports stage-1 hand-off ring telemetry")
	}
}
