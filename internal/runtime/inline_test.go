package runtime_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/exp"
	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
)

// The in-line driver runs a quantum's workers one after another on the
// calling goroutine, which makes a run a pure function of its
// configuration: it is the concurrent driver's bit-for-bit reference, as
// the record-array model of internal/hw's reference test is the cache
// model's. So every shipped scenario has an integer golden
// (runtime.IntGolden) of one in-line run on the small test platform,
// profiled with TestRuntimeBatchedScalarEquivalence's two-point grid and
// short windows, and so does the thrash-state configuration — the only
// one that swaps flows and copies state in a run this short. A change
// that means to move a number regenerates with
// `go test ./internal/runtime/ -run TestInLineGoldens -args -update`
// and says which number moved.

// thrashState names the thrash-state configuration among the cases.
const thrashState = "thrash_state"

// inLineDuration is every in-line case's measured virtual time.
const inLineDuration = 0.002

// inLineConfig returns case name's configuration: a shipped scenario with
// its flow types profiled and TestRuntimeBatchedScalarEquivalence's
// quantum, control period and warm-up, or the thrash-state configuration
// with state copies on.
func inLineConfig(t *testing.T, name string) runtime.Config {
	t.Helper()
	if name == thrashState {
		cfg := runtime.ThrashStateConfig(t)
		cfg.MigrateState = 16 << 20
		return cfg
	}
	cfg := shippedConfig(t, name)
	cfg.Profiles = map[apps.FlowType]runtime.FlowProfile{}
	for _, typ := range cfg.FlowTypes() {
		cfg.Profiles[typ] = profileOf(t, cfg, typ)
	}
	cfg.QuantumCycles, cfg.ControlEvery, cfg.Warmup = 100_000, 4, 0.0003
	return cfg
}

// profiles memoises the flow-type profiles of every case, keyed the way
// sweep's profile cache keys them: the platform, the parameters with
// Custom narrowed to the type's own graph (no other entry reaches its
// profile) and the type. So the golden and replay tests share them, and a
// type several scenarios run alike is profiled once; the first case to
// need a key profiles it and concurrent askers wait.
var profiles sync.Map // key → *profiled

type profiled struct {
	once sync.Once
	p    runtime.FlowProfile
	err  error
}

func profileOf(t *testing.T, cfg runtime.Config, typ apps.FlowType) runtime.FlowProfile {
	t.Helper()
	params := cfg.Params
	own, ok := params.Custom[typ]
	params.Custom = nil
	if ok {
		params.Custom = map[apps.FlowType]apps.CustomFlow{typ: own}
	}
	v, _ := profiles.LoadOrStore(fmt.Sprintf("%+v %#v %s", cfg.Cfg, params, typ), &profiled{})
	e := v.(*profiled)
	e.once.Do(func() {
		var m map[apps.FlowType]runtime.FlowProfile
		m, e.err = runtime.ProfileFlows(cfg.Cfg, params, 0.0005, 0.002, []int{400, 0}, []apps.FlowType{typ})
		e.p = m[typ]
	})
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.p
}

// runInLine runs cfg on the in-line driver and returns the report, its
// JSON and its integer golden.
func runInLine(t *testing.T, cfg runtime.Config) (*runtime.Report, []byte, []byte) {
	t.Helper()
	r, err := runtime.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.InLine()
	rep, err := r.Run(inLineDuration)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.Apps {
		if err := a.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return rep, js, runtime.IntGolden(r, rep)
}

func TestInLineGoldens(t *testing.T) {
	for _, name := range append(scenario.ShippedNames(), thrashState) {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // cases profile and run side by side
			rep, _, golden := runInLine(t, inLineConfig(t, name))
			runtime.CheckGolden(t, filepath.Join("testdata", "inline", name+".golden"), golden)
			// The goldens must cover the control loop's two decisions.
			switch name {
			case "hidden":
				if rep.ThrottleEvents == 0 {
					t.Fatal("admission never throttled the hidden aggressor")
				}
			case thrashState:
				if !slices.ContainsFunc(rep.Migrations, func(m runtime.Migration) bool { return m.StateCopyCycles > 0 }) {
					t.Fatalf("no migration copied state: %+v", rep.Migrations)
				}
			}
		})
	}
}

// TestInLineReplayAcrossGOMAXPROCS: an in-line run does not depend on how
// many host threads the process has. A chain that spin-polls its hand-off
// ring and the migrating thrash-state configuration give byte-identical
// reports at GOMAXPROCS 1, 2 and 8.
func TestInLineReplayAcrossGOMAXPROCS(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	for _, name := range []string{"nat_chain_staged", thrashState} {
		cfg := inLineConfig(t, name)
		var first []byte
		for _, procs := range []int{1, 2, 8} {
			stdruntime.GOMAXPROCS(procs)
			_, js, _ := runInLine(t, cfg)
			if first == nil {
				first = js
			} else if !bytes.Equal(js, first) {
				t.Fatalf("%s: the report at GOMAXPROCS %d differs from GOMAXPROCS 1's:\n%s\n%s", name, procs, js, first)
			}
		}
	}
}

// TestBarrierGoroutines: the in-line driver starts no goroutine, and the
// concurrent one starts one per worker when Run starts and leaves none
// behind when it returns. Counts are read inside OnWindow, mid-run.
func TestBarrierGoroutines(t *testing.T) {
	for _, inline := range []bool{true, false} {
		cfg := shippedConfig(t, "nat_chain_staged")
		var during []int
		cfg.OnWindow = func(runtime.ControlSample, []obs.Residual) {
			during = append(during, stdruntime.NumGoroutine())
		}
		r, err := runtime.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := settledGoroutines()
		want := before
		if inline {
			r.InLine()
		} else {
			want += 3 // the two-stage chain's workers and MON's
		}
		rep, err := r.Run(0.002)
		if err != nil {
			t.Fatal(err)
		}
		if len(during) == 0 || len(rep.Workers) != 3 {
			t.Fatalf("inline=%t: %d windows, %d workers", inline, len(during), len(rep.Workers))
		}
		for _, n := range during {
			if n != want {
				t.Fatalf("inline=%t: %d goroutines mid-run, want %d", inline, n, want)
			}
		}
		if after := settledGoroutines(); after != before {
			t.Fatalf("inline=%t: %d goroutines after Run, %d before", inline, after, before)
		}
	}
}

// settledGoroutines counts goroutines once the count stops changing, so
// one that has signalled its exit but not yet returned is not counted.
func settledGoroutines() int {
	n := stdruntime.NumGoroutine()
	for range 100 {
		time.Sleep(time.Millisecond)
		m := stdruntime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// BenchmarkQuantumDrivers times one run under each barrier driver, in
// host nanoseconds per processed packet, on the two runtime workloads of
// the bench harness at quick scale: the contended mix (six saturating
// flows on one socket) and the chains mix (two paced staged chains and a
// firewall). Neither driver wins on both, which is why production keeps
// goroutines.
func BenchmarkQuantumDrivers(b *testing.B) {
	if testing.Short() {
		b.Skip("profiles two quick-scale mixes")
	}
	for _, w := range []struct {
		name, path string
		duration   float64
	}{
		{"contended", "../../examples/scenarios/mixed.click", 0.01},
		{"chains", "../../bench/workloads/chains.click", 0.02},
	} {
		text, err := os.ReadFile(w.path)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := scenario.Parse(strings.NewReplacer("{{SEED}}", "1", "{{SIG_SEED}}", "11").Replace(string(text)))
		if err != nil {
			b.Fatal(err)
		}
		scale := exp.Quick()
		cfg, err := sc.Config(scale.Cfg, scale.Params)
		if err != nil {
			b.Fatal(err)
		}
		if cfg.Profiles, err = runtime.ProfileFlows(cfg.Cfg, cfg.Params, scale.Warmup, scale.Window, scale.SweepGrid, cfg.FlowTypes()); err != nil {
			b.Fatal(err)
		}
		cfg.Warmup = scale.Warmup
		for _, inline := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/inline=%t", w.name, inline), func(b *testing.B) {
				var pkts uint64
				for range b.N {
					b.StopTimer()
					r, err := runtime.NewRuntime(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if inline {
						r.InLine()
					}
					b.StartTimer()
					rep, err := r.Run(w.duration)
					if err != nil {
						b.Fatal(err)
					}
					pkts += rep.TotalProcessed()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
			})
		}
	}
}
