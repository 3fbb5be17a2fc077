package runtime_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	stdruntime "runtime"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
)

// serialLayout is the layout NewRuntime must produce, assembled the way
// it built flows before replicas were built side by side: one direct
// BuildSpec call per replica in declaration order, each stage's arena
// numbered and page-coloured as it is created. State lists every binding,
// the build-time source's included; the runtime keeps the live ones.
func serialLayout(t *testing.T, cfg runtime.Config) []runtime.FlowLayout {
	t.Helper()
	var out []runtime.FlowLayout
	worker, priv := 0, 0
	socketOf := func(w int) int {
		if len(cfg.Cores) > 0 {
			w = cfg.Cores[w]
		}
		return w / cfg.Cfg.CoresPerSocket
	}
	for ai, a := range cfg.Apps {
		for k := 0; k < a.Workers; k++ {
			arenas := make([]*mem.Arena, cfg.Params.Stages(a.Type))
			l := runtime.FlowLayout{ID: len(out), App: a.Name, Replica: k, StateHome: socketOf(worker)}
			for s := range arenas {
				priv++
				arenas[s] = mem.NewArena(cfg.Cfg.Sockets*priv + socketOf(worker))
				arenas[s].Reserve(uint64(priv)*101*4096, 4096)
				l.Workers = append(l.Workers, worker)
				worker++
			}
			inst, err := cfg.Params.BuildSpec(apps.Spec{
				Type: a.Type, Seed: core.SeedFor(a.Type, ai*64+k), SynCompute: a.SynCompute,
				Control: a.Control, HiddenTrigger: a.HiddenTrigger,
			}, func(s int) *mem.Arena { return arenas[s] })
			if err != nil {
				t.Fatalf("reference build of %s replica %d: %v", a.Name, k, err)
			}
			l.State = inst.State
			out = append(out, l)
		}
	}
	return out
}

// TestNewRuntimeLayoutIndependentOfGOMAXPROCS: building replicas side by
// side must not move anything simulated. Flow ids, the worker of every
// stage and every (element, stage, base, size) state binding are the
// same however many replicas build at once, and the same as a serial
// build — same seeds, same arenas, same addresses, so the same cache
// sets and the same virtual results.
func TestNewRuntimeLayoutIndependentOfGOMAXPROCS(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	for _, name := range []string{"mixed", "nat_chain_staged", "ids_chain_staged"} {
		cfg := shippedConfig(t, name)
		want := serialLayout(t, cfg)
		for i := range want {
			want[i].State = live(want[i].State)
		}
		if len(want) == 0 || len(want[0].State) == 0 {
			t.Fatalf("%s: reference layout is empty", name)
		}
		for _, procs := range []int{1, 2, 8} {
			stdruntime.GOMAXPROCS(procs)
			rt, err := runtime.NewRuntime(cfg)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			got := rt.Layout()
			if len(got) != len(want) {
				t.Fatalf("%s at GOMAXPROCS %d: %d flows, want %d", name, procs, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s at GOMAXPROCS %d: flow %d differs from the serial build\n got %+v\nwant %+v", name, procs, i, got[i], want[i])
				}
			}
		}
	}
}

// live drops the build-time source's bindings, as Instance.StateBindings does.
func live(all []apps.StateBinding) []apps.StateBinding {
	var out []apps.StateBinding
	for _, b := range all {
		if !b.Source {
			out = append(out, b)
		}
	}
	return out
}

// TestLayoutGolden pins the simulated layout across commits, which the
// test above cannot: it compares a build with itself, so a change that
// moved every staged element into another arena would pass it. For every
// shipped scenario and every bench workload at quick scale,
// testdata/layout.golden lists each replica's stage workers and every
// state binding — element, stage, base, size, whether it is the
// build-time source's — as the tree built them before a graph's stage
// cut joined the Click grammar (commit de16c65). On the way it holds each
// file to the loader's contract: parse → render → parse is a fixed point,
// graph bodies are the file's text, and a body's parsed stage count is
// the number of stages the runtime builds. A build change that means to
// move an address regenerates with
// `go test ./internal/runtime/ -run TestLayoutGolden -args -update`
// and says which.
func TestLayoutGolden(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.click")
	if err != nil {
		t.Fatal(err)
	}
	workloads, err := filepath.Glob("../../bench/workloads/*.click")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, path := range append(files, workloads...) {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The bench harness substitutes its -seed; any fixed pair will do.
		file := strings.NewReplacer("{{SEED}}", "1", "{{SIG_SEED}}", "11").Replace(string(text))
		sc, err := scenario.Parse(file)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		// Loading keeps every graph body as the file wrote it (comments
		// aside), so rendering is a fixed point, and the stage count a
		// body parses to is the one the runtime builds below.
		if again, err := scenario.Parse(sc.Render()); err != nil || !reflect.DeepEqual(again, sc) {
			t.Fatalf("%s: parse → render → parse diverges (%v)", path, err)
		}
		stripped, _ := click.StripComments(file)
		stages := map[apps.FlowType]int{}
		for _, g := range sc.Graphs {
			parsed, err := click.Parse(g.Config)
			if err != nil || !strings.Contains(stripped, "{"+g.Config+"}") {
				t.Fatalf("%s: graph %s is not the file's text (%v)", path, g.Name, err)
			}
			stages[apps.FlowType(g.Name)] = parsed.NumStages()
		}
		scale := exp.Quick()
		cfg, err := sc.Config(scale.Cfg, scale.Params)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		// Where state lands does not depend on a flow's offered rate.
		cfg.Profiles = map[apps.FlowType]runtime.FlowProfile{}
		for _, typ := range cfg.FlowTypes() {
			cfg.Profiles[typ] = runtime.FlowProfile{SoloPPS: 1e6}
		}
		rt, err := runtime.NewRuntime(cfg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		fmt.Fprintf(&out, "== %s\n", strings.TrimPrefix(path, "../../"))
		typeOf := map[string]apps.FlowType{}
		for _, a := range cfg.Apps {
			typeOf[a.Name] = a.Type
		}
		got := rt.Layout()
		for i, l := range serialLayout(t, cfg) {
			if !reflect.DeepEqual(got[i].Workers, l.Workers) || !reflect.DeepEqual(got[i].State, live(l.State)) {
				t.Fatalf("%s: flow %d differs from the serial build\n got %+v\nwant %+v", path, i, got[i], l)
			}
			if want := max(stages[typeOf[l.App]], 1); len(l.Workers) != want {
				t.Fatalf("%s: %s runs in %d stages, its graph parses to %d", path, l.App, len(l.Workers), want)
			}
			fmt.Fprintf(&out, "%s replica %d workers %v home %d\n", l.App, l.Replica, l.Workers, l.StateHome)
			for _, b := range l.State {
				fmt.Fprintf(&out, "  %s stage %d base %#x size %d source %t\n", b.Element, b.Stage, uint64(b.Base), b.Size, b.Source)
			}
		}
	}
	runtime.CheckGolden(t, filepath.Join("testdata", "layout.golden"), []byte(out.String()))
}

// TestNewRuntimeErrorIsLowestIndexReplica: with several replicas failing
// to build, the error is the first one's in declaration order — what the
// serial build reported — wrapped with its app and replica, however the
// builds were scheduled.
func TestNewRuntimeErrorIsLowestIndexReplica(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	cfg := shippedConfig(t, "mixed")
	cfg.Apps = []runtime.AppSpec{
		{Name: "fine", Type: apps.IP, Workers: 1},
		{Name: "first", Type: apps.MON, Workers: 2, HiddenTrigger: 100}, // only FW carries a trigger
		{Name: "fine2", Type: apps.FW, Workers: 1},
		{Name: "second", Type: apps.SYN, Workers: 1, Control: true}, // SYN has no pipeline to control
	}
	cfg.Cores = nil
	for _, procs := range []int{1, 8} {
		stdruntime.GOMAXPROCS(procs)
		_, err := runtime.NewRuntime(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), `runtime: app "first" replica 0: `) {
			t.Fatalf("GOMAXPROCS %d: err = %v, want app \"first\" replica 0's", procs, err)
		}
	}
}

// TestNewRuntimeKeepsWhatItAllocates: a build allocates what the runtime
// keeps and little else. Each pipeline's FromDevice, which the runtime
// drops for a receive ring, reserves its simulated memory but builds no
// host state, and a routing table is filled from a regenerated route
// sequence, never a list; before either, the shipped mix's quick-scale
// build left 2.1 MiB of garbage, 0.3 MiB since.
func TestNewRuntimeKeepsWhatItAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates ~4 MiB of its own in this build")
	}
	cfg := shippedConfig(t, "mixed")
	scale := exp.Quick()
	cfg.Cfg, cfg.Params = scale.Cfg, scale.Params
	cfg.Profiles = map[apps.FlowType]runtime.FlowProfile{}
	for _, typ := range cfg.FlowTypes() {
		cfg.Profiles[typ] = runtime.FlowProfile{SoloPPS: 1e6}
	}
	var before, after stdruntime.MemStats
	stdruntime.GC()
	stdruntime.ReadMemStats(&before)
	rt, err := runtime.NewRuntime(cfg)
	stdruntime.GC()
	stdruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	stdruntime.KeepAlive(rt)
	allocated, live := after.TotalAlloc-before.TotalAlloc, int64(after.HeapAlloc)-int64(before.HeapAlloc)
	garbage := int64(allocated) - live
	t.Logf("allocated %d B, live %d B, garbage %d B", allocated, live, garbage)
	if garbage > 1<<20 {
		t.Fatalf("NewRuntime allocated %.2f MiB and keeps %.2f MiB: %.2f MiB of garbage, want under 1 MiB",
			float64(allocated)/(1<<20), float64(live)/(1<<20), float64(garbage)/(1<<20))
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// BenchmarkNewRuntimeFull times the build of the shipped six-flow mix at
// paper scale (six 128 000-route tries, five flow tables). Run it with
// -cpu 1,2: at -cpu 1 it is the cost of sizing the tables in one step;
// beyond that the replicas build side by side.
func BenchmarkNewRuntimeFull(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale build skipped in -short mode")
	}
	sc, err := scenario.Shipped("mixed")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sc.Config(hw.DefaultConfig(), apps.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := runtime.NewRuntime(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
