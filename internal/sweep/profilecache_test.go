package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/exp"
	"pktpredict/internal/hw"
	"pktpredict/internal/runtime"
)

func cacheTestScale() exp.Scale {
	cfg := hw.DefaultConfig()
	cfg.L1D = hw.CacheGeom{SizeBytes: 4 << 10, Ways: 4}
	cfg.L2 = hw.CacheGeom{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = hw.CacheGeom{SizeBytes: 1 << 20, Ways: 16}
	return exp.Scale{
		Name:      "cache-test",
		Cfg:       cfg,
		Params:    apps.Small(),
		Warmup:    0.0005,
		Window:    0.002,
		SweepGrid: []int{400, 0},
	}
}

func cacheTestConfig(scale exp.Scale) runtime.Config {
	return runtime.Config{
		Cfg:    scale.Cfg,
		Params: scale.Params,
		Apps:   []runtime.AppSpec{{Name: "ip", Type: apps.IP, Workers: 1}},
	}
}

// TestProfileCacheRoundTrip drives the cache through its whole life:
// a cold run profiles and persists, a warm run (fresh process state,
// same inputs) serves every profile from disk with byte-identical
// results, and any keyed input changing — the salt (git revision) or a
// platform knob — invalidates cleanly back to a cold miss.
func TestProfileCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.json")
	scale := cacheTestScale()
	cfg := cacheTestConfig(scale)

	// Cold: miss, profile, persist.
	c1, err := OpenProfileCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Runner{Scale: scale, ProfileCache: c1}
	p1, err := r1.profiledFlows(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c1.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("cold run: %d hits %d misses, want 0/1", hits, misses)
	}
	if c1.Len() != 1 {
		t.Fatalf("cold run stored %d entries, want 1", c1.Len())
	}
	if err := c1.Save(); err != nil { // Run saves once, after its last point
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache file not persisted: %v", err)
	}

	// Warm: a fresh cache instance over the same file serves the profile
	// without re-profiling, and the result round-trips exactly.
	c2, err := OpenProfileCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Runner{Scale: scale, ProfileCache: c2}
	p2, err := r2.profiledFlows(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c2.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("warm run: %d hits %d misses, want 1/0", hits, misses)
	}
	j1, _ := json.Marshal(p1)
	j2, _ := json.Marshal(p2)
	if !reflect.DeepEqual(j1, j2) {
		t.Fatalf("warm profile differs from cold:\ncold %s\nwarm %s", j1, j2)
	}

	// Stale salt (a new git revision): the same inputs miss.
	c3, err := OpenProfileCache(path, "rev-b")
	if err != nil {
		t.Fatal(err)
	}
	r3 := &Runner{Scale: scale, ProfileCache: c3}
	if _, err := r3.profiledFlows(cfg); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c3.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stale salt: %d hits %d misses, want 0/1", hits, misses)
	}
	if c3.Len() != 2 {
		t.Fatalf("stale salt run stored %d entries, want 2 (old + new)", c3.Len())
	}
	if err := c3.Save(); err != nil {
		t.Fatal(err)
	}

	// Stale platform: one knob changes the key even at the same salt.
	c4, err := OpenProfileCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	hwCfg := scale.Cfg
	hwCfg.L3Latency++
	key1, err := c4.profileKey(scale.Cfg, cfg.Params, scale.Warmup, scale.Window, scale.SweepGrid, apps.IP)
	if err != nil {
		t.Fatal(err)
	}
	key2, err := c4.profileKey(hwCfg, cfg.Params, scale.Warmup, scale.Window, scale.SweepGrid, apps.IP)
	if err != nil {
		t.Fatal(err)
	}
	if key1 == key2 {
		t.Fatal("platform change did not change the cache key")
	}
	if _, ok := c4.entries[key1]; !ok {
		t.Fatal("original key no longer resolves")
	}
	if _, ok := c4.entries[key2]; ok {
		t.Fatal("changed platform resolved a stale entry")
	}
	// The modelled batch depth is a profiling input too: BATCH must key.
	batched := cfg.Params
	batched.RxBatch = 8
	key3, err := c4.profileKey(scale.Cfg, batched, scale.Warmup, scale.Window, scale.SweepGrid, apps.IP)
	if err != nil {
		t.Fatal(err)
	}
	if key3 == key1 {
		t.Fatal("RxBatch change did not change the cache key")
	}
}

// TestProfileKeyIgnoresOtherCustomGraphs: a builtin type's profile does
// not depend on the custom graphs that share its scenario, so it must not
// be keyed on them. Profiled under Params with and without an unrelated
// custom graph, in two fresh caches, IP lands under one key with a
// bit-identical profile.
func TestProfileKeyIgnoresOtherCustomGraphs(t *testing.T) {
	scale := cacheTestScale()
	plain := cacheTestConfig(scale)
	withGraph := cacheTestConfig(scale)
	withGraph.Params.Custom = map[apps.FlowType]apps.CustomFlow{"G": {
		Config: "src :: FromDevice(SIZE 64);\nsrc -> CheckIPHeader -> Counter -> ToDevice;\n"}}
	var keys []string
	var profiles [][]byte
	for _, cfg := range []runtime.Config{plain, withGraph} {
		c, err := OpenProfileCache("", "rev-a")
		if err != nil {
			t.Fatal(err)
		}
		p, err := (&Runner{Scale: scale, ProfileCache: c}).profiledFlows(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != 1 {
			t.Fatalf("%d keys for one flow type, want 1", c.Len())
		}
		for k := range c.entries {
			keys = append(keys, k)
		}
		j, _ := json.Marshal(p[apps.IP])
		profiles = append(profiles, j)
	}
	if keys[0] != keys[1] {
		t.Fatal("an unrelated custom graph changed IP's cache key")
	}
	if !bytes.Equal(profiles[0], profiles[1]) {
		t.Fatalf("IP's profile depends on an unrelated custom graph:\n%s\n%s", profiles[0], profiles[1])
	}
}

// TestRunnerProfilesSharedTypeOnce runs one platform × one load × two
// scenarios that share the IP flow type, one of them beside a custom
// graph: IP is profiled once for both (two misses: IP and the graph),
// and the cache file is written when Run ends.
func TestRunnerProfilesSharedTypeOnce(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.click": "s :: Scenario(NAME a);\nip :: Flow(TYPE IP);\n",
		"b.click": "s :: Scenario(NAME b);\ngraph G {\n    src :: FromDevice(SIZE 64);\n" +
			"    src -> CheckIPHeader -> Counter -> ToDevice;\n}\ng :: Flow(GRAPH G);\nip :: Flow(TYPE IP);\n",
		"t.sweep": "sweep :: Sweep(NAME t, DURATION 0.001, WARMUP 0.0001, TOLERANCE 0.99, LOADS 1, PARALLEL 2);\n" +
			"a :: Run(FILE a.click);\nb :: Run(FILE b.click);\n",
	}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg, err := LoadConfig(filepath.Join(dir, "t.sweep"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "profiles.json")
	c, err := OpenProfileCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Runner{Config: cfg, Scale: cacheTestScale(), ProfileCache: c}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if p.Error != "" {
			t.Fatalf("point %s: %s", p.Scenario, p.Error)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("%d hits %d misses, want 0/2 (IP once for both scenarios, G once)", hits, misses)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Run did not save the cache: %v", err)
	}
}

// TestProfileCacheCorruptFile checks damage tolerance: an unparseable
// cache is moved aside to .corrupt and profiling proceeds cold, exactly
// like the trend store's policy.
func TestProfileCacheCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenProfileCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("corrupt cache yielded %d entries", c.Len())
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("damaged bytes not preserved: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in place: %v", err)
	}

	// A version bump orphans old entries the same way.
	stale, _ := json.Marshal(profileCacheFile{Version: profileCacheVersion + 1,
		Entries: map[string]runtime.FlowProfile{"k": {SoloPPS: 1}}})
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = OpenProfileCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("future-version cache entries were accepted")
	}
}

// TestProfileCacheSharesAFailure: a key whose profile fails is one miss
// for the process; every asker, concurrent or later, gets that error
// without profiling again; nothing is stored, and Save writes no file.
func TestProfileCacheSharesAFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.json")
	c, err := OpenProfileCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	fail := errors.New("profile failed")
	var runs atomic.Int64
	profile := func() (runtime.FlowProfile, error) {
		runs.Add(1)
		time.Sleep(time.Millisecond) // the other askers arrive while it runs
		return runtime.FlowProfile{}, fail
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.lookup("key", profile); err != fail {
				t.Errorf("asker %d: error %v, want %v", g, err, fail)
			}
		}()
	}
	wg.Wait()
	if _, err := c.lookup("key", profile); err != fail {
		t.Errorf("later asker: error %v, want %v", err, fail)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("the failing profile ran %d times, want 1", n)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Errorf("%d hits %d misses, want 0/1", hits, misses)
	}
	if n := c.Len(); n != 0 {
		t.Errorf("%d entries stored after a failed profile, want 0", n)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Save after a failed profile: stat %s: %v, want no file", path, err)
	}
}
