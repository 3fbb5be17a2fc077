package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"pktpredict/internal/apps"
	"pktpredict/internal/hw"
	"pktpredict/internal/runtime"
)

// ProfileCache is a persistent store of offline profiling results, keyed
// by everything that determines a profile: the platform configuration,
// the workload parameters, the profiling windows and sweep grid, the flow
// type, and a caller-supplied salt (cmd/sweep uses the git revision, so a
// code change can never serve a stale curve). A full-scale sweep spends
// nearly all of its wall clock re-deriving profiles that have not
// changed; with a warm cache those grid points start in milliseconds.
//
// The cache is a single JSON file. Entries are per flow type, so two
// scenarios that share a platform and flow type share the work. Loads
// tolerate damage the way the trend store does: a file that no longer
// parses is moved aside to path+".corrupt" and profiling proceeds cold.
type ProfileCache struct {
	path string
	salt string

	mu      sync.Mutex
	entries map[string]runtime.FlowProfile
	hits    int
	misses  int
}

// profileCacheFile is the on-disk shape. Version guards the key scheme:
// bumping it orphans (and therefore ignores) every old entry.
type profileCacheFile struct {
	Version int                            `json:"version"`
	Entries map[string]runtime.FlowProfile `json:"entries"`
}

const profileCacheVersion = 1

// OpenProfileCache loads (or initialises) the cache at path. The salt
// becomes part of every key; pass the git revision so entries written by
// other code versions never match.
func OpenProfileCache(path, salt string) (*ProfileCache, error) {
	c := &ProfileCache{path: path, salt: salt, entries: map[string]runtime.FlowProfile{}}
	var f profileCacheFile
	ok, err := loadStore("profile cache", path, &f, func() bool { return f.Version == profileCacheVersion })
	if err != nil {
		return nil, err
	}
	if ok && f.Entries != nil {
		c.entries = f.Entries
	}
	return c, nil
}

// profileKey hashes every profiling input (plus the salt) into the cache
// key for one flow type. The JSON encoding of the inputs is the canonical
// form: any platform knob, workload parameter (including the modelled
// receive batch), window, or grid change produces a different key.
func (c *ProfileCache) profileKey(cfg hw.Config, params apps.Params, warmup, window float64, grid []int, t apps.FlowType) (string, error) {
	// Custom flow types contribute their graph text through the Custom
	// map; the map iterates nondeterministically but encoding/json sorts
	// object keys, so the encoding is stable.
	blob, err := json.Marshal(struct {
		Cfg    hw.Config
		Params apps.Params
		Warmup float64
		Window float64
		Grid   []int
		Type   apps.FlowType
		Salt   string
	}{cfg, params, warmup, window, grid, t, c.salt})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// get returns the cached profile for the key, counting the hit or miss.
func (c *ProfileCache) get(key string) (runtime.FlowProfile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return p, ok
}

// put records freshly profiled entries under their keys (in memory;
// Save persists).
func (c *ProfileCache) put(fresh map[string]runtime.FlowProfile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, p := range fresh {
		c.entries[k] = p
	}
}

// Stats reports cache effectiveness for this process: lookups served
// from disk versus lookups that had to profile.
func (c *ProfileCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of stored entries.
func (c *ProfileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Save writes the cache atomically, like the trend store (see
// saveStore).
func (c *ProfileCache) Save() error {
	c.mu.Lock()
	f := profileCacheFile{Version: profileCacheVersion, Entries: c.entries}
	data, err := json.MarshalIndent(&f, "", " ")
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("profile cache: %w", err)
	}
	return saveStore("profile cache", c.path, data)
}

// profiledFlows is ProfileFlows behind the cache: cached flow types are
// served from disk, the rest are profiled in one batch, stored, and the
// cache saved. A cache save failure does not fail the sweep — the
// profiles are correct either way — but it is reported on Progress.
func (r *Runner) profiledFlows(hwCfg hw.Config, cfg runtime.Config) (map[apps.FlowType]runtime.FlowProfile, error) {
	types := cfg.FlowTypes()
	c := r.ProfileCache
	if c == nil {
		return runtime.ProfileFlows(hwCfg, cfg.Params, r.Scale.Warmup, r.Scale.Window,
			r.Scale.SweepGrid, types)
	}
	out := make(map[apps.FlowType]runtime.FlowProfile, len(types))
	keys := make(map[apps.FlowType]string, len(types))
	var missing []apps.FlowType
	for _, t := range types {
		if _, done := out[t]; done {
			continue
		}
		key, err := c.profileKey(hwCfg, cfg.Params, r.Scale.Warmup, r.Scale.Window, r.Scale.SweepGrid, t)
		if err != nil {
			return nil, fmt.Errorf("profile cache key: %w", err)
		}
		keys[t] = key
		if p, ok := c.get(key); ok {
			out[t] = p
			continue
		}
		// Reserve the slot so a duplicate type in the list is not
		// profiled twice; the real profile overwrites it below.
		out[t] = runtime.FlowProfile{}
		missing = append(missing, t)
	}
	if len(missing) == 0 {
		return out, nil
	}
	profiled, err := runtime.ProfileFlows(hwCfg, cfg.Params, r.Scale.Warmup, r.Scale.Window,
		r.Scale.SweepGrid, missing)
	if err != nil {
		return nil, err
	}
	fresh := make(map[string]runtime.FlowProfile, len(profiled))
	for t, p := range profiled {
		out[t] = p
		fresh[keys[t]] = p
	}
	c.put(fresh)
	if err := c.Save(); err != nil && r.Progress != nil {
		fmt.Fprintf(r.Progress, "sweep: warning: %v\n", err)
	}
	return out, nil
}
