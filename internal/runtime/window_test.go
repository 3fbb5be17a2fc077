package runtime_test

import (
	"fmt"
	stdruntime "runtime"
	"strings"
	"testing"

	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
)

// sumFamily adds up every series of one counter or gauge family.
func sumFamily(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, f := range reg.Snapshot().Families {
		if f.Name == name {
			for _, s := range f.Series {
				sum += s.Value
			}
		}
	}
	return sum
}

// TestHandoffPollsExcludeWarmup: the hand-off poll counters are published
// at the barrier, so like every barrier-side family they count from
// measurement start. The same measured run of the shipped staged chain
// must report about the same spin-polls however long it warmed up; before
// the mark, the poll cursors were the one thing resetMeasurement forgot,
// and 20 ms of warm-up inflated them elevenfold.
func TestHandoffPollsExcludeWarmup(t *testing.T) {
	polls := func(warmup float64) map[string]float64 {
		cfg := shippedConfig(t, "nat_chain_staged")
		cfg.Warmup = warmup
		cfg.Metrics = obs.NewRegistry()
		r, err := runtime.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(0.002); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, dir := range []string{"", "push_", "pop_"} {
			name := "dataplane_handoff_" + dir + "polls_total"
			out[name] = sumFamily(cfg.Metrics, name)
		}
		return out
	}
	cold, warm := polls(0), polls(0.020)
	// Which side of the cut spins is host scheduling: a direction that is
	// nearly idle (pop polls here) may read 0 in one run and a percent or
	// two of the total in the next, so the 2x is taken above that floor.
	floor := cold["dataplane_handoff_polls_total"] / 20
	for name, c := range cold {
		w := warm[name]
		if lo, hi := min(c, w), max(c, w); hi > 2*lo+floor {
			t.Errorf("%s: %.0f with no warm-up, %.0f after 20 ms of it — the same measured window must agree within 2x", name, c, w)
		}
	}
}

// TestBarrierAllocationGate: with a registry the control barrier only
// Sets and Adds handles resolved at build time, so a run with metrics
// allocates barely more per control window than one without (it used to
// resolve every element's and worker's label tuple at every barrier,
// ~250 allocations a window on this scenario).
func TestBarrierAllocationGate(t *testing.T) {
	mallocs := func(reg *obs.Registry) float64 {
		cfg := shippedConfig(t, "nat_chain_staged")
		cfg.Metrics = reg
		wins := runtime.CaptureWindows(&cfg)
		r, err := runtime.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		if _, err := r.Run(0.004); err != nil {
			t.Fatal(err)
		}
		stdruntime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(wins.Samples))
	}
	without, with := mallocs(nil), mallocs(obs.NewRegistry())
	if with > without+8 {
		t.Fatalf("%.1f mallocs per control window with a registry, %.1f without: the barrier is allocating for the registry", with, without)
	}
}

// TestMetricFamiliesGolden pins every family's name, kind, label names
// and help — the scrape contract — against the list the runtime
// registered before its families became rows of a table. The staged
// chain and the migrating scenario must register the same families.
func TestMetricFamiliesGolden(t *testing.T) {
	const path = "testdata/families.golden"
	for _, name := range []string{"nat_chain_staged", "thrash_migrate"} {
		cfg := shippedConfig(t, name)
		cfg.Metrics = obs.NewRegistry()
		r, err := runtime.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(0.001); err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, f := range cfg.Metrics.Snapshot().Families {
			fmt.Fprintf(&got, "%s %s {%s} %s\n", f.Name, f.Kind, strings.Join(f.Labels, ","), f.Help)
		}
		runtime.CheckGolden(t, path, []byte(got.String()))
	}
}
