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

// Both barrier drivers step a socket's workers by one rule (runSocket):
// the in-line driver runs the sockets one after another on the calling
// goroutine, production runs them side by side, one goroutine each. So an
// in-line run is a pure function of its configuration, and a production
// run whose sockets share nothing within a quantum gives the same bytes.
// Every shipped scenario has an integer golden (runtime.IntGolden) of one
// in-line run on the small test platform, profiled with
// TestRuntimeBatchedScalarEquivalence's two-point grid and short windows,
// and so does the thrash-state configuration — the only one that swaps
// flows and copies state in a run this short. Production must give the
// same golden, at any GOMAXPROCS, for every case but crossSocketChains
// (TestOneSocketRunsRepeat). A change that means to move a number
// regenerates with
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

// crossSocketChains are the shipped scenarios that cut a chain across
// sockets. Their hand-off rings are shared live by two socket goroutines
// within a quantum (ROADMAP item 18), so a production run's interleaving,
// and with it its numbers, varies from run to run; the goldens pin their
// in-line runs only.
var crossSocketChains = []string{"ids_chain_staged", "nat_chain_staged"}

// procsMu lets one production run at a time set GOMAXPROCS.
var procsMu sync.Mutex

// runCase runs cfg and returns the report, its JSON and its integer
// golden: on the in-line driver if procs is 0, else on the goroutine
// driver with GOMAXPROCS set to procs for the run. prep, if given, sets
// test hooks on the built runtime.
func runCase(t *testing.T, cfg runtime.Config, procs int, prep ...func(*runtime.Runtime)) (*runtime.Report, []byte, []byte) {
	t.Helper()
	r, err := runtime.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prep {
		p(r)
	}
	if procs == 0 {
		r.InLine()
	} else {
		procsMu.Lock()
		defer procsMu.Unlock()
		defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(procs))
	}
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

// TestInLineGoldens checks every case's in-line run against its golden.
func TestInLineGoldens(t *testing.T) {
	for _, name := range append(scenario.ShippedNames(), thrashState) {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // cases profile and run side by side
			cfg := inLineConfig(t, name)
			rep, _, golden := runCase(t, cfg, 0)
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
			// TestOneSocketRunsRepeat's exemption holds only while its
			// reason does.
			if slices.Contains(crossSocketChains, name) && !slices.ContainsFunc(rep.Workers, func(w runtime.WorkerReport) bool {
				return slices.ContainsFunc(rep.Workers, func(v runtime.WorkerReport) bool {
					return v.App == w.App && v.Stage != w.Stage && v.Socket != w.Socket
				})
			}) {
				t.Fatalf("%s places no chain stage on another socket: %+v", name, rep.Workers)
			}
		})
	}
}

// TestOneSocketRunsRepeat: the goroutine driver runs each socket's
// workers on one goroutine by the in-line driver's rule, so a production
// run whose sockets share nothing within a quantum repeats the in-line
// run byte for byte. Every case but crossSocketChains gives its committed
// golden on the goroutine driver at GOMAXPROCS 1, 2 and 8, and again with
// every emitter forced on at GOMAXPROCS 2 and 8, where no worker has a
// request outstanding at any barrier.
func TestOneSocketRunsRepeat(t *testing.T) {
	for _, name := range append(scenario.ShippedNames(), thrashState) {
		if slices.Contains(crossSocketChains, name) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel() // cases profile side by side; runCase serialises the runs
			cfg := inLineConfig(t, name)
			golden, err := os.ReadFile(filepath.Join("testdata", "inline", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 8} {
				if _, _, got := runCase(t, cfg, procs); !bytes.Equal(got, golden) {
					t.Fatalf("production at GOMAXPROCS %d differs from the golden:\n%s\n%s", procs, got, golden)
				}
			}
			for _, procs := range []int{2, 8} {
				if _, _, got := runCase(t, cfg, procs, forceEmitters(t, nil)); !bytes.Equal(got, golden) {
					t.Fatalf("production with emitters at GOMAXPROCS %d differs from the golden:\n%s\n%s", procs, got, golden)
				}
			}
		})
	}
}

// forceEmitters returns a runCase hook that forces every emitter on,
// with delay before each claim, and fails t at any barrier where a
// worker's handshake is not idle.
func forceEmitters(t *testing.T, delay func()) func(*runtime.Runtime) {
	return func(r *runtime.Runtime) {
		r.ForceEmitters(delay)
		r.AtBarrier(func(outstanding int) {
			if outstanding != 0 {
				t.Errorf("%d workers have a request outstanding at a barrier", outstanding)
			}
		})
	}
}

// TestEmitterStealsKeepTheReport: an emitter that falls behind leaves
// its requests to the socket goroutine, which steals and walks them
// itself; the run still gives the golden. The delay holds the emitter
// back on one claim in eight.
func TestEmitterStealsKeepTheReport(t *testing.T) {
	const name = "mixed"
	cfg := inLineConfig(t, name)
	golden, err := os.ReadFile(filepath.Join("testdata", "inline", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	claims := 0
	delay := func() {
		if claims++; claims%8 == 0 {
			time.Sleep(20 * time.Microsecond)
		}
	}
	var r *runtime.Runtime
	_, _, got := runCase(t, cfg, 2, forceEmitters(t, delay), func(rt *runtime.Runtime) { r = rt })
	if !bytes.Equal(got, golden) {
		t.Fatalf("a run whose emitter fell behind differs from the golden:\n%s\n%s", got, golden)
	}
	em := r.Emitters()
	if len(em) != 1 || em[0].Quanta == 0 || em[0].Steals == 0 {
		t.Fatalf("emitter tallies %+v: want one socket that ran quanta with an emitter and had steals", em)
	}
	t.Logf("emitter tallies %+v", em)
}

// TestInLineReplayAcrossGOMAXPROCS: an in-line run does not depend on how
// many host threads the process has. A chain that spin-polls a hand-off
// ring across sockets gives byte-identical reports at GOMAXPROCS 1, 2 and 8.
func TestInLineReplayAcrossGOMAXPROCS(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	cfg := inLineConfig(t, "nat_chain_staged")
	var first []byte
	for _, procs := range []int{1, 2, 8} {
		stdruntime.GOMAXPROCS(procs)
		_, js, _ := runCase(t, cfg, 0)
		if first == nil {
			first = js
		} else if !bytes.Equal(js, first) {
			t.Fatalf("the report at GOMAXPROCS %d differs from GOMAXPROCS 1's:\n%s\n%s", procs, js, first)
		}
	}
}

// TestBarrierGoroutines: the in-line driver starts no goroutine, and the
// concurrent one starts one per socket that hosts a worker when Run
// starts, plus one emitter per socket the CPU budget grants one, and
// leaves none behind when it returns. Counts are read inside OnWindow,
// mid-run.
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
			want += 2 // the two-stage chain's workers and MON's sit on two sockets
		}
		rep, err := r.Run(0.002)
		if err != nil {
			t.Fatal(err)
		}
		sockets := map[int]bool{}
		for _, w := range rep.Workers {
			sockets[w.Socket] = true
		}
		if len(during) == 0 || len(rep.Workers) != 3 || len(sockets) != 2 {
			t.Fatalf("inline=%t: %d windows, %d workers on %d sockets", inline, len(during), len(rep.Workers), len(sockets))
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
	// mixed runs six one-stage workers on one socket, which can have an
	// emitter. The budget grants it one when the socket goroutine leaves a
	// CPU of GOMAXPROCS spare (no experiment is live), and its goroutine
	// starts at the first granted quantum and ends with Run.
	procsMu.Lock()
	defer procsMu.Unlock()
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		stdruntime.GOMAXPROCS(procs)
		cfg := shippedConfig(t, "mixed")
		var during []int
		cfg.OnWindow = func(runtime.ControlSample, []obs.Residual) {
			during = append(during, stdruntime.NumGoroutine())
		}
		r, err := runtime.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := settledGoroutines()
		emitters := 0
		if 1 < procs { // one socket goroutine, no live experiment
			emitters = 1
		}
		if _, err := r.Run(0.002); err != nil {
			t.Fatal(err)
		}
		em := r.Emitters()
		if len(em) != 1 || (em[0].Quanta > 0) != (emitters == 1) {
			t.Fatalf("GOMAXPROCS %d: emitter tallies %+v, want %d emitters", procs, em, emitters)
		}
		for _, n := range during {
			if n != before+1+emitters {
				t.Fatalf("GOMAXPROCS %d: %d goroutines mid-run, want %d", procs, n, before+1+emitters)
			}
		}
		if after := settledGoroutines(); after != before {
			t.Fatalf("GOMAXPROCS %d: %d goroutines after Run, %d before", procs, after, before)
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
// firewall, on both sockets). Both drivers step a socket's workers on
// one goroutine, so on the contended mix the goroutine driver costs about
// what the in-line pass costs, at any -cpu, and on the chains mix a
// second host CPU runs the two sockets side by side, which the in-line
// pass cannot: that is why production runs it.
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
