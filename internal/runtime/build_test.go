package runtime_test

import (
	"reflect"
	stdruntime "runtime"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
)

// serialLayout is the layout NewRuntime must produce, assembled the way
// it built flows before replicas were built side by side: one direct
// BuildSpec call per replica in declaration order, each stage's arena
// numbered and page-coloured as it is created.
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
			l.State = inst.StateBindings(-1)
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
