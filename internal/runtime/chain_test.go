package runtime

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
)

// monStyleGraph is a MON-shaped service chain (header check + route
// lookup, then flow statistics) whose tail can be cut onto a second
// worker.
func monStyleGraph(params apps.Params) string {
	return fmt.Sprintf(`
		src :: FromDevice(SIZE 64, FLOWS %d, BUFFERS %d);
		chk :: CheckIPHeader;
		rt  :: RadixIPLookup(ROUTES %d);
		ttl :: DecIPTTL;
		nf  :: NetFlow(ENTRIES %d);
		src -> chk -> rt -> ttl -> nf -> ToDevice;
	`, params.TrafficFlows, params.Buffers, params.Routes, params.NetFlowEntries)
}

// craftedGraph is the Section 2.2 adversarial workload: two cacheable
// structures, each the size of the shared cache, touched many times per
// packet. Run whole on one core the working set is twice the L3; cut at
// the second structure each stage's half fits its socket's cache.
func craftedGraph(halfBytes int) string {
	return fmt.Sprintf(`
		src :: FromDevice(SIZE 64, FLOWS 1024);
		a :: Syn(REGION %d, ACCESSES 110);
		b :: Syn(REGION %d, ACCESSES 110);
		src -> a -> b -> ToDevice;
	`, halfBytes, halfBytes)
}

// withCustom returns params with one custom flow type registered, its
// stage map written as the configuration's `stage N:` statements.
func withCustom(params apps.Params, name, config string, stages map[string]int) apps.Params {
	custom := map[apps.FlowType]apps.CustomFlow{}
	for t, cf := range params.Custom {
		custom[t] = cf
	}
	for _, el := range slices.Sorted(maps.Keys(stages)) {
		config += fmt.Sprintf("stage %d: %s;\n", stages[el], el)
	}
	custom[apps.FlowType(name)] = apps.CustomFlow{Config: config, PacketSize: 64}
	params.Custom = custom
	return params
}

func checkConservation(t *testing.T, rep *Report) {
	t.Helper()
	for _, a := range rep.Apps {
		if err := a.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}

// runGoodput executes one configuration and returns the named app's
// finished-packets-per-second plus the report.
func runGoodput(t *testing.T, cfg Config, app string, dur float64) (float64, *Report) {
	t.Helper()
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	for _, a := range rep.Apps {
		if a.Name == app {
			return a.GoodputPPS, rep
		}
	}
	t.Fatalf("app %s missing from report", app)
	return 0, nil
}

// TestTeeAcrossCutReportsLostBranches cuts a graph between a Tee and
// both its branches: the chain hands each packet across the cut once,
// so every packet loses its second branch. The report's CutDropped is
// the stage runners' count (no warm-up, so nothing is subtracted) and
// the app table carries the note that says so.
func TestTeeAcrossCutReportsLostBranches(t *testing.T) {
	graph := `
		src :: FromDevice(SIZE 64);
		t :: Tee;
		a :: Counter;
		b :: Counter;
		src -> t;
		t[0] -> a -> ToDevice;
		t[1] -> b -> Discard;
	`
	params := withCustom(apps.Small(), "TEEC", graph, map[string]int{"a": 1, "b": 1})
	cfg := testConfig([]AppSpec{{Name: "teec", Type: "TEEC", Workers: 1}})
	cfg.Params, cfg.Warmup = params, 0
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.002)
	if err != nil {
		t.Fatal(err)
	}
	var runners uint64
	for _, w := range r.workers {
		runners += w.unit.runner.CutDropped
	}
	a := rep.Apps[0]
	if a.CutDropped == 0 || a.CutDropped != runners {
		t.Fatalf("report CutDropped %d, stage runners %d: want equal and nonzero", a.CutDropped, runners)
	}
	if note := fmt.Sprintf("teec: %d packet branches lost at stage cuts", a.CutDropped); !strings.Contains(rep.String(), note) {
		t.Fatalf("report does not carry %q:\n%s", note, rep)
	}
}

func TestRuntimeChainRunsAndConserves(t *testing.T) {
	params := withCustom(apps.Small(), "MONC", monStyleGraph(apps.Small()), map[string]int{"nf": 1})
	cfg := testConfig([]AppSpec{{Name: "monc", Type: "MONC", Workers: 1}})
	cfg.Params = params
	cps := testCfg().CoresPerSocket
	cfg.Cores = []int{0, cps} // stage 0 on socket 0, stage 1 across QPI
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
	if len(rep.Workers) != 2 {
		t.Fatalf("chain occupies %d workers, want 2", len(rep.Workers))
	}
	for _, w := range rep.Workers {
		if w.Packets == 0 {
			t.Fatalf("stage worker %d processed nothing: %+v", w.Worker, w)
		}
		if w.Stages != 2 || w.App != "monc" {
			t.Fatalf("worker %d not reported as a 2-stage chain worker: %+v", w.Worker, w)
		}
	}
	if rep.Workers[0].Stage != 0 || rep.Workers[1].Stage != 1 {
		t.Fatalf("stage order wrong: %d/%d", rep.Workers[0].Stage, rep.Workers[1].Stage)
	}
	a := rep.Apps[0]
	if a.Stages != 2 || a.Workers != 2 {
		t.Fatalf("app report stages/workers = %d/%d, want 2/2", a.Stages, a.Workers)
	}
	if a.Processed == 0 || a.Finished == 0 {
		t.Fatalf("chain made no progress: %+v", a)
	}
	if a.CutDropped != 0 {
		t.Fatalf("linear chain lost %d branches at the cut", a.CutDropped)
	}
	// Per-stage telemetry made it into the control samples.
	sawStage1 := false
	for _, cs := range wins.Samples {
		for _, wt := range cs.Workers {
			if wt.Stage == 1 && wt.Stages == 2 && wt.RingCap > 0 {
				sawStage1 = true
			}
		}
	}
	if !sawStage1 {
		t.Fatal("no control sample carries stage-1 hand-off telemetry")
	}
}

// TestRuntimeChainPipelineVersusParallel reproduces the Section 2.2
// verdict inside the concurrent runtime and checks it against the
// deterministic engine's exp.RunPipeline: a MON-style chain loses to its
// parallel placement, the crafted large-cacheable-structure chain wins —
// per-app packet conservation holding in every run.
func TestRuntimeChainPipelineVersusParallel(t *testing.T) {
	base := apps.Small()
	hwCfg := testCfg()
	cps := hwCfg.CoresPerSocket
	cores := []int{0, cps} // one core per socket for both deployments
	const dur = 0.004

	run := func(name, config string, stages map[string]int) float64 {
		params := withCustom(base, name, config, stages)
		var spec AppSpec
		if stages == nil {
			spec = AppSpec{Name: "app", Type: apps.FlowType(name), Workers: 2}
		} else {
			spec = AppSpec{Name: "app", Type: apps.FlowType(name), Workers: 1}
		}
		cfg := testConfig([]AppSpec{spec})
		cfg.Params = params
		cfg.Cores = cores
		pps, _ := runGoodput(t, cfg, "app", dur)
		return pps
	}

	monCfg := monStyleGraph(base)
	monParallel := run("MONP", monCfg, nil)
	monChain := run("MONC", monCfg, map[string]int{"nf": 1})
	if monChain >= monParallel {
		t.Fatalf("MON-style chain should lose to parallel: chain %.0f pps vs parallel %.0f pps",
			monChain, monParallel)
	}

	crafted := craftedGraph(hwCfg.L3.SizeBytes)
	craftedParallel := run("CRAFTP", crafted, nil)
	craftedChain := run("CRAFTC", crafted, map[string]int{"b": 1})
	if craftedChain <= craftedParallel {
		t.Fatalf("crafted chain should beat parallel: chain %.0f pps vs parallel %.0f pps",
			craftedChain, craftedParallel)
	}

	// The runtime's verdicts must match the deterministic engine's
	// Section 2.2 reproduction, which charges the same hand-off costs
	// through the shared handoff package.
	res, err := exp.RunPipeline(exp.Quick().NewPredictor())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		switch row.Workload {
		case "MON":
			if row.Winner() != "parallel" {
				t.Fatalf("engine says MON winner is %s, runtime says parallel", row.Winner())
			}
		case "crafted":
			if row.Winner() != "pipeline" {
				t.Fatalf("engine says crafted winner is %s, runtime says pipeline", row.Winner())
			}
		}
	}
}

// TestRuntimeChainStaysPinned: re-placement must treat a chain as one
// unit. A single swap cannot move both stages, so even when the chain's
// predicted drop is the worst on the floor the rebalancer must route
// around it — here by swapping the co-located thrasher away instead.
//
// The mix also holds one flow of every kind — a two-stage chain, a raw
// synthetic source, a one-stage pipeline and a bare-source pipeline (no
// elements: packets complete at pull) — so it doubles as the check that
// all four are the same thing to the worker: each makes progress, each
// conserves packets, and the swap moves the one-stage flows only.
func TestRuntimeChainStaysPinned(t *testing.T) {
	params := withCustom(apps.Small(), "MONC", monStyleGraph(apps.Small()), map[string]int{"nf": 1})
	params = withCustom(params, "BARE", "src :: FromDevice(SIZE 64, FLOWS 256);", nil)
	params.SynRegionBytes = testCfg().L3.SizeBytes / 2
	monSolo := soloStats(t, apps.MON, params)
	synSolo := soloStats(t, apps.SYNMAX, params)
	chainCurve := core.Curve{Target: "MONC", Points: []core.CurvePoint{
		{CompetingRefsPerSec: 0, Drop: 0},
		{CompetingRefsPerSec: monSolo.L3RefsPerSec(), Drop: 0.3},
		{CompetingRefsPerSec: synSolo.L3RefsPerSec(), Drop: 0.6},
	}}
	profiles := map[apps.FlowType]FlowProfile{
		// The chain suffers badly next to the thrasher: the obvious (but
		// pinned) swap candidate.
		"MONC":      {SoloPPS: monSolo.Throughput(), SoloRefsPerSec: monSolo.L3RefsPerSec(), Curve: chainCurve},
		apps.SYNMAX: {SoloPPS: synSolo.Throughput(), SoloRefsPerSec: synSolo.L3RefsPerSec()},
		apps.MON:    {SoloPPS: monSolo.Throughput(), SoloRefsPerSec: monSolo.L3RefsPerSec()},
	}
	cps := testCfg().CoresPerSocket
	cfg := testConfig([]AppSpec{
		{Name: "chain", Type: "MONC", Workers: 1},
		{Name: "thrash", Type: apps.SYNMAX, Workers: 1},
		{Name: "mon", Type: apps.MON, Workers: 1},
		{Name: "bare", Type: "BARE", Workers: 1},
	})
	cfg.Params = params
	// Both chain stages and the thrasher share socket 0; a swappable MON
	// (and the bare-source flow) sit on socket 1.
	cfg.Cores = []int{0, 1, 2, cps, cps + 1}
	cfg.Profiles = profiles
	cfg.DropThreshold = 0.01
	// State migration enabled: the thrasher/mon relief swap may copy
	// state, the pinned chain's tables must never move.
	cfg.MigrateState = 64 << 20
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.006)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, rep)
	for _, a := range rep.Apps {
		if a.Processed == 0 || a.Finished == 0 {
			t.Fatalf("app %s made no progress: %+v", a.Name, a)
		}
		want := 1
		if a.Name == "chain" {
			want = 2
		}
		if a.Stages != want {
			t.Fatalf("app %s reports %d stages, want %d", a.Name, a.Stages, want)
		}
	}
	for _, m := range rep.Migrations {
		if strings.HasPrefix(m.FlowA, "chain") || strings.HasPrefix(m.FlowB, "chain") {
			t.Fatalf("pinned chain migrated: %+v", m)
		}
	}
	// The relief migration (thrasher across sockets) must still be
	// available to the rebalancer.
	if len(rep.Migrations) == 0 {
		t.Fatal("rebalancer never moved the thrasher away from the suffering chain")
	}
	// State migration was live for the swapped flows, yet the pinned
	// chain's per-stage tables never moved: its worker rows stay
	// NUMA-local for the whole run.
	sawCopy := false
	for _, m := range rep.Migrations {
		if m.CopyA.Copied || m.CopyB.Copied {
			sawCopy = true
		}
	}
	if !sawCopy {
		t.Fatal("no relief migration copied state despite an admitting threshold")
	}
	for _, w := range rep.Workers {
		if w.App != "chain" {
			continue
		}
		if w.StateBytes == 0 || w.StateSocket != w.Socket {
			t.Fatalf("pinned chain stage %d: state %dB on socket %d, worker on %d",
				w.Stage, w.StateBytes, w.StateSocket, w.Socket)
		}
	}
}

// TestHiddenTriggerRequiresFW: the hidden-trigger aggressor is an FW
// pipeline by construction, so both executors must refuse to build it
// under any other declared type — before the fix a MON flow silently ran
// (and was reported, profiled and predicted as MON while executing) FW,
// and a SYN flow built a ring-fed FW with no generator that processed
// nothing without an error.
func TestHiddenTriggerRequiresFW(t *testing.T) {
	params := withCustom(apps.Small(), "monc", monStyleGraph(apps.Small()), map[string]int{"nf": 1})
	for _, typ := range []apps.FlowType{apps.MON, apps.SYN, "monc"} {
		t.Run(string(typ), func(t *testing.T) {
			cfg := testConfig([]AppSpec{{Name: "rogue", Type: typ, Workers: 1, HiddenTrigger: 2000}})
			cfg.Params = params
			if _, err := NewRuntime(cfg); err == nil || !strings.Contains(err.Error(), "HIDDEN_TRIGGER") {
				t.Errorf("runtime built a hidden-trigger %s flow: err = %v", typ, err)
			}
			sc := core.Scenario{Cfg: testCfg(), Params: params,
				Flows: []core.FlowSpec{{Type: typ, Seed: 1, HiddenTrigger: 2000}}}
			if _, err := sc.Build(); err == nil || !strings.Contains(err.Error(), "HIDDEN_TRIGGER") {
				t.Errorf("engine built a hidden-trigger %s flow: err = %v", typ, err)
			}
		})
	}
}
