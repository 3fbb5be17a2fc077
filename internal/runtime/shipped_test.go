package runtime_test

import (
	"math"
	"path/filepath"
	"slices"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/hw"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
)

// The suites here run the shipped paper mixes — the scenario files are
// the only statement of those workloads — so they live in the external
// test package: internal/scenario imports this one.

// paperMixes names the shipped scenario files that carry the paper's
// four stresses (examples/scenarios/NAME.click).
var paperMixes = []string{"mixed", "bursty", "thrash", "hidden"}

// shippedConfig assembles a shipped scenario on the small test platform.
func shippedConfig(t *testing.T, name string) runtime.Config {
	t.Helper()
	sc, err := scenario.Load(filepath.Join("../../examples/scenarios", name+".click"))
	if err != nil {
		t.Fatal(err)
	}
	hwCfg := hw.DefaultConfig()
	hwCfg.L1D = hw.CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	hwCfg.L2 = hw.CacheGeom{SizeBytes: 32 << 10, Ways: 8}
	hwCfg.L3 = hw.CacheGeom{SizeBytes: 1 << 20, Ways: 16}
	cfg, err := sc.Config(hwCfg, apps.Small())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return cfg
}

// needsProfile reports whether any app states its rate as a fraction of
// its solo throughput, which only an offline profile can resolve.
func needsProfile(cfg runtime.Config) bool {
	return slices.ContainsFunc(cfg.Apps, func(a runtime.AppSpec) bool { return a.RateFraction > 0 })
}

// TestShippedScenariosBuild: every paper mix assembles from its shipped
// file, and those that need no profile build a runnable runtime.
func TestShippedScenariosBuild(t *testing.T) {
	for _, name := range paperMixes {
		cfg := shippedConfig(t, name)
		if len(cfg.Apps) == 0 {
			t.Fatalf("%s: no apps", name)
		}
		if types := cfg.FlowTypes(); len(types) == 0 {
			t.Fatalf("%s: no flow types to profile", name)
		}
		// Scenarios with rate fractions need profiles; the rest must
		// build runnable runtimes straight away.
		if needsProfile(cfg) {
			continue
		}
		if _, err := runtime.NewRuntime(cfg); err != nil {
			t.Fatalf("%s: NewRuntime: %v", name, err)
		}
	}
}

// TestRuntimeBatchedScalarEquivalence runs every shipped paper mix at
// BATCH 1 (the historical scalar model) and at a deeper modelled batch,
// and checks batching changed the accounting's efficiency, not its
// correctness: conservation identities hold exactly in both, every app
// still processes traffic, and observed drops agree within the same
// tolerance band the engine validation uses. CI's dedicated -race step
// runs this test to race-check the batched hot paths end to end.
func TestRuntimeBatchedScalarEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence suite skipped in -short mode (runs in its dedicated CI step)")
	}
	const (
		warmup = 0.0005
		window = 0.002
		dur    = 0.004
		batch  = 8
	)
	grid := []int{400, 0}
	for _, name := range paperMixes {
		t.Run(name, func(t *testing.T) {
			drops := map[int]map[string]float64{}
			for _, b := range []int{1, batch} {
				cfg := shippedConfig(t, name)
				cfg.Params.RxBatch = b
				if needsProfile(cfg) {
					// Profiles must be derived at the same modelled batch
					// depth the runtime runs with, or rate fractions
					// reference the wrong solo capacity.
					profiles, err := runtime.ProfileFlows(cfg.Cfg, cfg.Params, warmup, window, grid, cfg.FlowTypes())
					if err != nil {
						t.Fatal(err)
					}
					cfg.Profiles = profiles
				}
				cfg.QuantumCycles = 100_000
				cfg.ControlEvery = 4
				cfg.Warmup = 0.0003
				r, err := runtime.NewRuntime(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := r.Run(dur)
				if err != nil {
					t.Fatal(err)
				}
				drops[b] = map[string]float64{}
				for _, a := range rep.Apps {
					if err := a.CheckConservation(); err != nil {
						t.Fatal(err)
					}
					if a.Processed == 0 {
						t.Fatalf("batch %d: app %s processed nothing", b, a.Name)
					}
					if a.Type.Synthetic() {
						continue
					}
					drops[b][a.Name] = a.ObservedDrop
				}
			}
			tol := 0.15
			if name == "thrash" {
				tol = 0.20 // migration transient timing differs run to run
			}
			for app, d1 := range drops[1] {
				db := drops[batch][app]
				if diff := math.Abs(d1 - db); diff > tol {
					t.Errorf("app %s: drop %.1f%% at BATCH 1 vs %.1f%% at BATCH %d — gap %.1f%% exceeds ±%.0f%%",
						app, d1*100, db*100, batch, diff*100, tol*100)
				}
			}
		})
	}
}
