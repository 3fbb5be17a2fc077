package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
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
// The cache is a single JSON file; with no path it lives in memory only,
// which is how a Runner without one still profiles each key once.
// Entries are per flow type, so two scenarios that share a platform and
// flow type share the work. Loads tolerate damage the way the trend store
// does: a file that no longer parses is moved aside to path+".corrupt"
// and profiling proceeds cold.
type ProfileCache struct {
	path string
	salt string

	mu      sync.Mutex
	entries map[string]runtime.FlowProfile
	slots   map[string]*profileSlot // keys looked up by this process
	dirty   bool                    // entries gained a key since the last Save
	hits    int
	misses  int
}

// profileSlot is one key's lookup: the first grid point to ask runs it,
// concurrent askers wait on the once.
type profileSlot struct {
	once sync.Once
	p    runtime.FlowProfile
	err  error
}

// profileCacheFile is the on-disk shape. Version guards the key scheme:
// bumping it orphans (and therefore ignores) every old entry.
type profileCacheFile struct {
	Version int                            `json:"version"`
	Entries map[string]runtime.FlowProfile `json:"entries"`
}

const profileCacheVersion = 2

// OpenProfileCache loads (or initialises) the cache at path. The salt
// becomes part of every key; pass the git revision so entries written by
// other code versions never match.
func OpenProfileCache(path, salt string) (*ProfileCache, error) {
	c := &ProfileCache{path: path, salt: salt, entries: map[string]runtime.FlowProfile{},
		slots: map[string]*profileSlot{}}
	if path == "" {
		return c, nil
	}
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

// ownParams narrows params.Custom to t's own entry. Build, PacketSize
// and Stages read no other, so nothing else in Custom can change t's
// profile — and a builtin type profiles to one key whatever custom graphs
// share its scenario.
func ownParams(params apps.Params, t apps.FlowType) apps.Params {
	cf, ok := params.Custom[t]
	params.Custom = nil
	if ok {
		params.Custom = map[apps.FlowType]apps.CustomFlow{t: cf}
	}
	return params
}

// profileKey hashes every profiling input (plus the salt) into the cache
// key for one flow type, whose params ownParams has narrowed. The JSON
// encoding of the inputs is the canonical form: any platform knob,
// workload parameter (including the modelled receive batch and a custom
// type's graph text), window, or grid change produces a different key.
func (c *ProfileCache) profileKey(cfg hw.Config, params apps.Params, warmup, window float64, grid []int, t apps.FlowType) (string, error) {
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

// lookup returns the profile stored under key, running profile to make it
// when there is none. A key is looked up once per process — the first
// asker counts the hit or miss, concurrent askers wait for its result —
// so no key is profiled twice however many grid points share it.
func (c *ProfileCache) lookup(key string, profile func() (runtime.FlowProfile, error)) (runtime.FlowProfile, error) {
	c.mu.Lock()
	s := c.slots[key]
	if s == nil {
		s = &profileSlot{}
		c.slots[key] = s
	}
	c.mu.Unlock()
	s.once.Do(func() {
		c.mu.Lock()
		p, ok := c.entries[key]
		if ok {
			c.hits++
		} else {
			c.misses++
		}
		c.mu.Unlock()
		if ok {
			s.p = p
			return
		}
		if s.p, s.err = profile(); s.err == nil {
			c.mu.Lock()
			c.entries[key], c.dirty = s.p, true
			c.mu.Unlock()
		}
	})
	return s.p, s.err
}

// Stats reports cache effectiveness for this process: distinct keys
// served from the store versus keys that had to profile.
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
// saveStore). A memory-only cache, or one with no new entry, has nothing
// to write.
func (c *ProfileCache) Save() error {
	c.mu.Lock()
	if c.path == "" || !c.dirty {
		c.mu.Unlock()
		return nil
	}
	f := profileCacheFile{Version: profileCacheVersion, Entries: c.entries}
	data, err := json.MarshalIndent(&f, "", " ")
	c.dirty = false
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("profile cache: %w", err)
	}
	return saveStore("profile cache", c.path, data)
}

// profiledFlows returns the offline profile of every flow type cfg runs,
// each looked up in the cache under its own key and profiled there on a
// miss; the types fan out, so a point's misses profile side by side.
func (r *Runner) profiledFlows(cfg runtime.Config) (map[apps.FlowType]runtime.FlowProfile, error) {
	c, sc, types := r.ProfileCache, r.Scale, cfg.FlowTypes()
	profs := make([]runtime.FlowProfile, len(types))
	err := core.FanOut(len(types), func(i int) error {
		t := types[i]
		params := ownParams(cfg.Params, t)
		key, err := c.profileKey(cfg.Cfg, params, sc.Warmup, sc.Window, sc.SweepGrid, t)
		if err != nil {
			return fmt.Errorf("profile cache key: %w", err)
		}
		profs[i], err = c.lookup(key, func() (runtime.FlowProfile, error) {
			m, err := runtime.ProfileFlows(cfg.Cfg, params, sc.Warmup, sc.Window, sc.SweepGrid, []apps.FlowType{t})
			return m[t], err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[apps.FlowType]runtime.FlowProfile, len(types))
	for i, t := range types {
		out[t] = profs[i]
	}
	return out, nil
}
