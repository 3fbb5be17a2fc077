package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
)

func memArena() *mem.Arena { return mem.NewArena(0) }

const shippedDir = "../../examples/scenarios"

func testCfg() hw.Config {
	cfg := hw.DefaultConfig()
	cfg.L1D = hw.CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	cfg.L2 = hw.CacheGeom{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = hw.CacheGeom{SizeBytes: 1 << 20, Ways: 16}
	return cfg
}

func loadShipped(t *testing.T, name string) *Scenario {
	t.Helper()
	s, err := Load(filepath.Join(shippedDir, name+".click"))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return s
}

// TestShippedFilesRoundTrip re-renders every shipped scenario and parses
// the result: the canonical form must reproduce the identical structure,
// graph bodies byte-for-byte.
func TestShippedFilesRoundTrip(t *testing.T) {
	entries, err := os.ReadDir(shippedDir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".click") {
			continue
		}
		n++
		t.Run(e.Name(), func(t *testing.T) {
			s1, err := Load(filepath.Join(shippedDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Parse(s1.Render())
			if err != nil {
				t.Fatalf("re-parse of rendered scenario failed: %v\n--- rendered ---\n%s", err, s1.Render())
			}
			if s2.Name == "" {
				s2.Name = s1.Name
			}
			if !reflect.DeepEqual(s1, s2) {
				t.Fatalf("round trip diverges:\n got %+v\nwant %+v\n--- rendered ---\n%s", s2, s1, s1.Render())
			}
		})
	}
	if n < 5 {
		t.Fatalf("only %d shipped scenario files found, want ≥5", n)
	}
}

// TestShippedGraphsParse builds every inline graph of every shipped file
// through the click parser — the parser-level round trip on the shipped
// corpus.
func TestShippedGraphsParse(t *testing.T) {
	entries, err := os.ReadDir(shippedDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".click") {
			continue
		}
		s, err := Load(filepath.Join(shippedDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		params := apps.Small()
		cfgr, err := s.Config(testCfg(), params)
		if err != nil {
			t.Fatalf("%s: Config: %v", e.Name(), err)
		}
		for _, g := range s.Graphs {
			cf, ok := cfgr.Params.Custom[apps.FlowType(g.Name)]
			if !ok {
				t.Fatalf("%s: graph %s not registered as a custom type", e.Name(), g.Name)
			}
			inst, err := cfgr.Params.Build(apps.FlowType(g.Name), memArena(), 1)
			if err != nil {
				t.Fatalf("%s: graph %s does not build: %v", e.Name(), g.Name, err)
			}
			if inst.Pipeline == nil {
				t.Fatalf("%s: graph %s built no pipeline", e.Name(), g.Name)
			}
			if cf.Config != g.Config {
				t.Fatalf("%s: graph %s text not preserved", e.Name(), g.Name)
			}
		}
	}
}

func TestNatChainRunsEndToEnd(t *testing.T) {
	s := loadShipped(t, "nat_chain")
	cfg, err := s.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg.QuantumCycles = 100_000
	cfg.ControlEvery = 4
	cfg.Warmup = 0.0003
	r, err := runtime.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	var natApp *runtime.AppReport
	for i := range rep.Apps {
		if rep.Apps[i].Name == "natfw" {
			natApp = &rep.Apps[i]
		}
	}
	if natApp == nil {
		t.Fatal("no natfw app in report")
	}
	if natApp.Processed == 0 {
		t.Fatal("NAT chain processed nothing")
	}
	if len(natApp.Branches) == 0 {
		t.Fatal("branching NAT chain reported no per-branch counters")
	}
	branches := map[string]runtime.BranchReport{}
	for _, br := range natApp.Branches {
		branches[br.Node] = br
	}
	// TCP+UDP forwarded packets finish at ToDevice and drop at the
	// mirror's Discard; non-TCP/UDP traffic would drop at the classifier
	// Discard (generated traffic is all TCP/UDP, so that stays zero).
	var wire, mirror uint64
	for name, br := range branches {
		if strings.HasPrefix(name, "ToDevice") {
			wire = br.Finished
		}
		if strings.HasPrefix(name, "Discard") && br.Dropped > 0 {
			mirror += br.Dropped
		}
	}
	if wire == 0 || mirror != wire {
		t.Fatalf("branch accounting: wire %d, mirrored drops %d (branches %+v)", wire, mirror, natApp.Branches)
	}
	if rep.String() == "" || !strings.Contains(rep.String(), "branches:") {
		t.Fatal("report does not render branch telemetry")
	}
}

func TestIDSChainRunsEndToEnd(t *testing.T) {
	s := loadShipped(t, "ids_chain")
	cfg, err := s.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg.QuantumCycles = 100_000
	cfg.ControlEvery = 4
	cfg.Warmup = 0.0003
	r, err := runtime.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	var ids *runtime.AppReport
	for i := range rep.Apps {
		if rep.Apps[i].Name == "ids" {
			ids = &rep.Apps[i]
		}
	}
	if ids == nil {
		t.Fatal("no ids app in report")
	}
	if ids.Processed == 0 {
		t.Fatal("IDS chain processed nothing")
	}
	// The cascade's exits: clean traffic, low-entropy suspects, and
	// first-sighting suspects finish at (distinct anonymous) ToDevice
	// instances; banned repeat offenders drop at the Discard. With
	// SIG_HIT 0.06, LOW_ENTROPY 0.5 and 4096 sources, every exit must
	// see traffic, and the fast path must dominate.
	var wires []uint64
	var banned uint64
	for _, br := range ids.Branches {
		if strings.HasPrefix(br.Node, "ToDevice") && br.Finished > 0 {
			wires = append(wires, br.Finished)
		}
		if strings.HasPrefix(br.Node, "Discard") {
			banned += br.Dropped
		}
	}
	if len(wires) != 3 {
		t.Fatalf("want 3 live ToDevice exits (clean, low-entropy, first-sighting), got %d (branches %+v)", len(wires), ids.Branches)
	}
	var total, max uint64
	for _, w := range wires {
		total += w
		if w > max {
			max = w
		}
	}
	if max*100 < total*90 {
		t.Fatalf("fast path carries %d of %d finished packets, want >= 90%% at a 6%% signature-hit rate", max, total)
	}
	if banned == 0 {
		t.Fatal("no repeat offender was banned; the BanTable tail never fired")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text, wantSub string }{
		{"no scenario decl", `mon :: Flow(TYPE MON);`, "missing scenario"},
		{"no flows", `scenario :: Scenario(NAME x);`, "no flows"},
		{"double scenario", `scenario :: Scenario(NAME x); s2 :: Scenario(NAME y); m :: Flow(TYPE MON);`, "second Scenario"},
		{"unknown class", `scenario :: Scenario(NAME x); m :: Widget(TYPE MON);`, "unknown declaration class"},
		{"flow without type", `scenario :: Scenario(NAME x); m :: Flow(WORKERS 2);`, "needs TYPE or GRAPH"},
		{"both type and graph", `scenario :: Scenario(NAME x); m :: Flow(TYPE MON, GRAPH G); graph G { src :: FromDevice; src -> ToDevice; }`, "both TYPE and GRAPH"},
		{"undeclared graph", `scenario :: Scenario(NAME x); m :: Flow(GRAPH NOPE);`, "undeclared graph"},
		{"unused graph", "scenario :: Scenario(NAME x); m :: Flow(TYPE MON);\ngraph G { src :: FromDevice; src -> ToDevice; }", "no flow uses it"},
		{"dup flow", `scenario :: Scenario(NAME x); m :: Flow(TYPE MON); m :: Flow(TYPE MON);`, "declared twice"},
		{"zero workers", `scenario :: Scenario(NAME x); m :: Flow(TYPE MON, WORKERS 0);`, "WORKERS 0 outside [1,)"},
		{"burst on only", `scenario :: Scenario(NAME x); m :: Flow(TYPE MON, BURST_ON 1);`, "BURST_ON 1 and BURST_OFF 0 gate the source together"},
		{"burst off only", `scenario :: Scenario(NAME x); m :: Flow(TYPE MON, BURST_OFF 3);`, "BURST_ON 0 and BURST_OFF 3 gate the source together"},
		{"bad placement", `scenario :: Scenario(NAME x, PLACE q1); m :: Flow(TYPE MON);`, "placement"},
		{"bad fraction", `scenario :: Scenario(NAME x, SYN_REGION_FRACTION 1.5); m :: Flow(TYPE MON);`, "SYN_REGION_FRACTION"},
		{"bad batch", `scenario :: Scenario(NAME x, BATCH -2); m :: Flow(TYPE MON);`, "BATCH"},
		{"negative ring", `s :: Scenario(RING -5); m :: Flow(TYPE MON);`, "RING -5 outside [1,1048576]"},
		{"unterminated graph", `scenario :: Scenario(NAME x); graph G { src :: FromDevice;`, "missing closing brace"},
		{"malformed graph", `scenario :: Scenario(NAME x); graph { }; m :: Flow(TYPE MON);`, "malformed graph"},
		{"bad statement", `scenario :: Scenario(NAME x); what is this; m :: Flow(TYPE MON);`, "cannot parse"},
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

// TestNumericKeysBounded: no numeric Scenario or Flow row is unbounded.
// -1 parses as an integer and as a float, so every row that is not a
// verbatim string must refuse it, naming the key — an Int or Float row
// with its interval, the other kinds (bool, uint64, placement) as
// malformed. An unbounded RING reached runtime.NewRing and panicked on a
// build goroutine; the other unbounded rows ran as if the key were absent.
func TestNumericKeysBounded(t *testing.T) {
	verbatim := []string{"NAME", "TYPE", "GRAPH"}
	check := func(name string, err error) {
		switch {
		case slices.Contains(verbatim, name):
			if err != nil {
				t.Errorf("%s: a string key refused -1: %v", name, err)
			}
		case err == nil:
			t.Errorf("%s accepts -1: give the row an interval", name)
		case !strings.HasPrefix(err.Error(), "c: "+name+" -1 ") || !strings.Contains(err.Error(), " outside [") && !strings.Contains(err.Error(), " is not "):
			t.Errorf("%s: error %q does not name the key with its bounds or its kind", name, err)
		}
	}
	for _, k := range scenarioKeys {
		check(k.Name, click.Decode("c", scenarioKeys, click.ParseArgs([]string{k.Name + " -1"}), &Scenario{}))
	}
	for _, k := range flowKeys {
		check(k.Name, click.Decode("c", flowKeys, click.ParseArgs([]string{k.Name + " -1"}), &flowDecl{}))
	}
}

// TestUndeclaredArgumentsRejected: every declaration class rejects what
// its key table does not declare — a misspelled key, a stray positional
// argument — naming the statement, its line and the known keys. The
// first two cases used to parse silently into one saturating worker
// with re-placement off.
func TestUndeclaredArgumentsRejected(t *testing.T) {
	const header = "scenario :: Scenario(NAME x);\n"
	cases := []struct{ name, text, at string }{
		{"scenario misspelling", "scenario :: Scenario(NAME x, DROP_TRESHOLD 0.05, BATCHH 9);\nmon :: Flow(TYPE MON);",
			"statement 1 (line 1): scenario: unknown key BATCHH, DROP_TRESHOLD (known keys: NAME RING BATCH"},
		{"flow misspelling", header + "mon :: Flow(TYPE MON, WORKER 3, RATE_FRACTON 0.5);",
			`statement 2 (line 2): flow "mon": unknown key RATE_FRACTON, WORKER (known keys: TYPE GRAPH WORKERS`},
		{"flow key on scenario", "scenario :: Scenario(NAME x, WORKERS 2);\nmon :: Flow(TYPE MON);", "scenario: unknown key WORKERS"},
		{"scenario key on flow", header + "\nmon :: Flow(TYPE MON, MIGRATE_STATE true);", `(line 3): flow "mon": unknown key MIGRATE_STATE`},
		{"platform misspelling", header + "platform :: Platform(L3_BYTE 524288);\nmon :: Flow(TYPE MON);",
			"statement 2 (line 2): platform: unknown key L3_BYTE (known keys: SOCKETS CORES_PER_SOCKET"},
		{"scenario positional", "scenario :: Scenario(NAME x, ADMISSION);\nmon :: Flow(TYPE MON);",
			`statement 1 (line 1): scenario: positional argument "ADMISSION" (known keys: NAME`},
		{"flow positional", header + "mon :: Flow(MON);", `statement 2 (line 2): flow "mon": positional argument "MON"`},
		{"platform positional", header + "platform :: Platform(64);\nmon :: Flow(TYPE MON);", `platform: positional argument "64"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.text); err == nil || !strings.Contains(err.Error(), tc.at) {
				t.Fatalf("error %v, want containing %q", err, tc.at)
			}
		})
	}
}

// TestShippedByName: a shipped scenario resolved by name is the file
// loaded by path, and an unknown name lists what is shipped.
func TestShippedByName(t *testing.T) {
	names := ShippedNames()
	for _, want := range []string{"mixed", "bursty", "thrash", "hidden"} {
		if !slices.Contains(names, want) {
			t.Fatalf("ShippedNames() = %v, missing %s", names, want)
		}
	}
	for _, name := range names {
		byName, err := Shipped(name)
		if err != nil {
			t.Fatal(err)
		}
		if byPath := loadShipped(t, name); !reflect.DeepEqual(byName, byPath) {
			t.Fatalf("%s: embedded copy diverges from the file:\n got %+v\nwant %+v", name, byName, byPath)
		}
	}
	if _, err := Shipped("nope"); err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Fatalf("unknown shipped scenario: error %v, want the shipped names", err)
	}
}

// TestHiddenTriggerRequiresFW: HIDDEN_TRIGGER builds an FW aggressor, so
// any other flow type is a parse error that names the flow's line.
func TestHiddenTriggerRequiresFW(t *testing.T) {
	const graph = "\ngraph G { src :: FromDevice; nf :: NetFlow; src -> CheckIPHeader -> nf -> ToDevice; stage 1: nf; }"
	cases := []struct{ name, flow, tail string }{
		{"MON", "rogue :: Flow(TYPE MON, HIDDEN_TRIGGER 2000);", ""},
		{"SYN", "rogue :: Flow(TYPE SYN, HIDDEN_TRIGGER 2000);", ""},
		{"staged custom", "rogue :: Flow(GRAPH G, HIDDEN_TRIGGER 2000);", graph},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("scenario :: Scenario(NAME x);\n\n" + tc.flow + tc.tail)
			if err == nil {
				t.Fatal("expected a parse error")
			}
			for _, sub := range []string{"HIDDEN_TRIGGER", "line 3", `"rogue"`} {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q does not contain %q", err, sub)
				}
			}
		})
	}
	if _, err := Parse("scenario :: Scenario(NAME x); rogue :: Flow(TYPE fw, HIDDEN_TRIGGER 2000);"); err != nil {
		t.Fatalf("FW aggressor rejected: %v", err)
	}
}

func TestConfigErrors(t *testing.T) {
	cfg := testCfg()
	params := apps.Small()

	s, err := Parse(`scenario :: Scenario(NAME x, MIN_CORES_PER_SOCKET 99); m :: Flow(TYPE MON);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Config(cfg, params); err == nil || !strings.Contains(err.Error(), "cores per socket") {
		t.Fatalf("requirement not enforced: %v", err)
	}

	s, err = Parse(`scenario :: Scenario(NAME x, MIN_SOCKETS 9); m :: Flow(TYPE MON);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Config(cfg, params); err == nil || !strings.Contains(err.Error(), "sockets") {
		t.Fatalf("socket requirement not enforced: %v", err)
	}

	// A flow's type is resolved against the file's graphs when it is
	// parsed, so an unknown one never reaches Config.
	if _, err = Parse(`scenario :: Scenario(NAME x); m :: Flow(TYPE NOPE);`); err == nil || !strings.Contains(err.Error(), `unknown flow type "NOPE"`) {
		t.Fatalf("unknown flow type accepted: %v", err)
	}

	s, err = Parse(`scenario :: Scenario(NAME x, PLACE s9:0); m :: Flow(TYPE MON);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Config(cfg, params); err == nil || !strings.Contains(err.Error(), "outside the platform") {
		t.Fatalf("bad placement accepted: %v", err)
	}

	// A graph name colliding with a builtin type must be rejected even
	// with pristine params: SYN would silently win over the graph, MON
	// would be silently replaced by it.
	for _, name := range []string{"MON", "SYN", "syn_max"} {
		text := `scenario :: Scenario(NAME x); m :: Flow(GRAPH ` + name + `); graph ` + name + ` { src :: FromDevice; src -> ToDevice; }`
		s, err = Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Config(cfg, params); err == nil || !strings.Contains(err.Error(), "collides with a builtin") {
			t.Fatalf("graph %s: builtin collision accepted: %v", name, err)
		}
	}
	// ...and colliding with an already-registered custom type too.
	s, err = Parse(`scenario :: Scenario(NAME x); m :: Flow(GRAPH CHAIN); graph CHAIN { src :: FromDevice; src -> ToDevice; }`)
	if err != nil {
		t.Fatal(err)
	}
	params2 := params
	params2.Custom = map[apps.FlowType]apps.CustomFlow{"CHAIN": {Config: "x"}}
	if _, err := s.Config(cfg, params2); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("custom type collision accepted: %v", err)
	}
}

// TestFlowTypesIncludesCustom: profiling discovers custom types through
// runtime.Config.FlowTypes.
func TestFlowTypesIncludesCustom(t *testing.T) {
	s := loadShipped(t, "nat_chain")
	cfg, err := s.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	types := cfg.FlowTypes()
	want := []apps.FlowType{"MON", "NATFW", "VPN"}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("FlowTypes = %v, want %v", types, want)
	}
}

// TestMigrateStateKnob: the MIGRATE_STATE scenario argument reaches the
// runtime configuration, and the shipped thrash_migrate file differs
// from plain thrash only by that knob (and its name).
func TestMigrateStateKnob(t *testing.T) {
	s, err := Parse(`
		scenario :: Scenario(NAME m, MIGRATE_STATE 1048576);
		mon :: Flow(TYPE MON);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runtime.MigrateState != 1<<20 {
		t.Fatalf("MigrateState = %d, want %d", s.Runtime.MigrateState, 1<<20)
	}
	cfg, err := s.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MigrateState != 1<<20 {
		t.Fatalf("runtime config MigrateState = %d, want %d", cfg.MigrateState, 1<<20)
	}

	base, err := loadShipped(t, "thrash").Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	mig, err := loadShipped(t, "thrash_migrate").Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	if mig.MigrateState == 0 {
		t.Fatal("thrash_migrate ships without MIGRATE_STATE")
	}
	base.MigrateState = mig.MigrateState
	base.Scenario = mig.Scenario
	if !reflect.DeepEqual(base, mig) {
		t.Fatalf("thrash_migrate diverges from thrash beyond the migration knob:\n got %+v\nwant %+v", mig, base)
	}
}

// TestBatchKnob: the BATCH scenario argument reaches both sides of the
// model it must keep consistent — the modelled receive batch the cost
// accounting amortises poll charges over (Params.RxBatch) and the burst
// the runtime's workers drain per ring poll — and survives a render round
// trip. The burst is read where an operator sees it: the mean fill of
// an occupancy-counted poll, dataplane_worker_batch_filled_total over
// dataplane_worker_batch_polls_total, which saturated MON polls fill
// exactly.
func TestBatchKnob(t *testing.T) {
	burst := func(cfg runtime.Config) float64 {
		t.Helper()
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		r, err := runtime.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(0.001); err != nil {
			t.Fatal(err)
		}
		counts := map[string]float64{}
		for _, f := range reg.Snapshot().Families {
			for _, ss := range f.Series {
				counts[f.Name] += ss.Value
			}
		}
		polls, filled := counts["dataplane_worker_batch_polls_total"], counts["dataplane_worker_batch_filled_total"]
		if polls == 0 {
			t.Fatalf("no occupancy-counted batch poll (%v filled)", filled)
		}
		return filled / polls
	}
	s, err := Parse(`
		scenario :: Scenario(NAME b, BATCH 8);
		mon :: Flow(TYPE MON);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Batch != 8 {
		t.Fatalf("Batch = %d, want 8", s.Batch)
	}
	cfg, err := s.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Params.RxBatch != 8 {
		t.Fatalf("params RxBatch = %d, want 8 (profiling and runtime must batch alike)", cfg.Params.RxBatch)
	}
	if got := burst(cfg); got != 8 {
		t.Fatalf("BATCH 8 runtime drains bursts of %v, want 8", got)
	}
	rendered := s.Render()
	if !strings.Contains(rendered, "BATCH 8") {
		t.Fatalf("render lost the batch knob:\n%s", rendered)
	}
	s2, err := Parse(rendered)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Batch != 8 {
		t.Fatalf("round-tripped Batch = %d, want 8", s2.Batch)
	}

	// Unset: the historical scalar model — the modelled receive batch stays
	// off and workers drain the runtime's default burst of 32.
	s, err = Parse(`scenario :: Scenario(NAME b); mon :: Flow(TYPE MON);`)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = s.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Params.RxBatch != 0 {
		t.Fatalf("unset BATCH leaked: RxBatch=%d", cfg.Params.RxBatch)
	}
	if got := burst(cfg); got != 32 {
		t.Fatalf("unbatched runtime drains bursts of %v, want 32", got)
	}
}

// TestFlowSLOKey: SLO_P99_US parses into the assembled AppSpec, renders
// back out canonically, and is absent when undeclared.
func TestFlowSLOKey(t *testing.T) {
	s, err := Parse(`
scenario :: Scenario(NAME slo, MIN_CORES_PER_SOCKET 2);
fast :: Flow(TYPE IP, WORKERS 1, RATE_FRACTION 0.5, SLO_P99_US 250);
free :: Flow(TYPE MON, WORKERS 1);
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Flows[0].SLOP99US; got != 250 {
		t.Fatalf("parsed SLO_P99_US = %v, want 250", got)
	}
	if got := s.Flows[1].SLOP99US; got != 0 {
		t.Fatalf("undeclared SLO parsed as %v", got)
	}
	cfg, err := s.Config(testCfg(), apps.Small())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Apps[0].SLOP99US != 250 || cfg.Apps[1].SLOP99US != 0 {
		t.Fatalf("SLO did not reach the AppSpecs: %+v", cfg.Apps)
	}
	rendered := s.Render()
	if !strings.Contains(rendered, "SLO_P99_US 250") {
		t.Fatalf("render dropped the SLO key:\n%s", rendered)
	}
	if strings.Count(rendered, "SLO_P99_US") != 1 {
		t.Fatalf("render emitted SLO for a flow without one:\n%s", rendered)
	}
}
