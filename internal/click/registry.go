// Grammar keys live in this package too: every key a configuration may
// write — in an element's Class(...) and in the declarations of
// internal/scenario and internal/sweep — is one Key row of a table
// (keys.go). Args only carries the text, Decode is its one reader, and
// NewInstance decodes through the table a class gave Register before the
// class's build function runs.
package click

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"pktpredict/internal/mem"
)

// Env carries the resources element constructors need: the NUMA arena to
// allocate simulated memory from (enforcing the paper's local-allocation
// policy) and a seed for any per-flow randomness.
type Env struct {
	Arena *mem.Arena
	Seed  uint64

	// RxBatch is every source's receive batch size (the scenario-level
	// BATCH knob). 0 or 1 means unbatched.
	RxBatch int

	// ArenaAt makes state placement stage-aware: Graph.Build allocates an
	// element's state from ArenaAt(its stage), so every stage of a
	// cross-worker service chain keeps its tables in the NUMA domain of the
	// worker that will run it, instead of stage 0's. nil means every stage
	// uses Arena.
	ArenaAt func(stage int) *mem.Arena
}

// arenaFor resolves the arena for one stage's allocations.
func (e *Env) arenaFor(stage int) *mem.Arena {
	if e.ArenaAt == nil {
		return e.Arena
	}
	return e.ArenaAt(stage)
}

// registry holds every class with its declaration type erased: the
// decode-then-build step, its decode-only twin and the rows of its key
// table.
var registry = struct {
	sync.Mutex
	build map[string]func(env *Env, args Args) (interface{}, error)
	check map[string]func(args Args) error
	rows  map[string][]Row
}{build: map[string]func(*Env, Args) (interface{}, error){}, check: map[string]func(Args) error{}, rows: map[string][]Row{}}

// Register makes a class available to configurations. The class hands
// over its key table, the configuration a bare `Class` gets in env (nil:
// the zero T) and a build function that receives the decoded T — never
// the Args — and returns an Element or Source; a class that takes no
// arguments registers a nil table over struct{}. It panics on duplicate
// registration, which indicates two packages claiming one name.
func Register[T any](class string, keys []Key[T], defaults func(env *Env) T, build func(env *Env, cfg T) (interface{}, error)) {
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.build[class]; dup {
		panic(fmt.Sprintf("click: class %q registered twice", class))
	}
	registry.rows[class] = make([]Row, len(keys))
	for i, k := range keys {
		registry.rows[class][i] = k.Row
	}
	registry.check[class] = func(args Args) error { return Decode(class, keys, args, new(T)) }
	registry.build[class] = func(env *Env, args Args) (interface{}, error) {
		var cfg T
		if defaults != nil {
			cfg = defaults(env)
		}
		if err := Decode(class, keys, args, &cfg); err != nil {
			return nil, err
		}
		return build(env, cfg)
	}
}

// NewInstance constructs an instance of class, decoding the arguments
// through its key table first: an unknown key, a stray positional, an
// unparsable or out-of-interval value is an error naming class and key,
// raised before the class allocates anything.
func NewInstance(env *Env, class string, args Args) (interface{}, error) {
	registry.Lock()
	build, ok := registry.build[class]
	registry.Unlock()
	if !ok {
		return nil, fmt.Errorf("click: %w", checkArgs(class, args))
	}
	return build(env, args)
}

// checkArgs is NewInstance without the instance, for Parse: the class
// must be registered and the arguments decode through its key table.
func checkArgs(class string, args Args) error {
	registry.Lock()
	check, ok := registry.check[class]
	registry.Unlock()
	if !ok {
		return fmt.Errorf("unknown element class %q (known: %v)", class, Classes())
	}
	return check(args)
}

// KeyTables returns every registered class's key-table rows, in table
// order — what a configuration may write inside `Class(...)`.
func KeyTables() map[string][]Row {
	registry.Lock()
	defer registry.Unlock()
	return maps.Clone(registry.rows)
}

// Classes returns the sorted names of all registered classes.
func Classes() []string { return slices.Sorted(maps.Keys(KeyTables())) }
