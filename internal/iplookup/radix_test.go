package iplookup

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"pktpredict/internal/click"
	_ "pktpredict/internal/elements" // FromDevice and ToDevice, for ParseConfig
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

func newTrie() *RadixTrie { return New(mem.NewArena(0), nil) }

func TestLookupEmptyTrie(t *testing.T) {
	tr := newTrie()
	if got := tr.LookupPlain(0x01020304); got != NoRoute {
		t.Fatalf("empty trie returned route %d", got)
	}
}

func TestDefaultRoute(t *testing.T) {
	tr := newTrie()
	tr.Insert(0, 0, 99)
	for _, dst := range []uint32{0, 1, 0xffffffff, 0x0a000001} {
		if got := tr.LookupPlain(dst); got != 99 {
			t.Fatalf("Lookup(%#x) = %d, want default 99", dst, got)
		}
	}
}

func TestLongestPrefixWins(t *testing.T) {
	tr := newTrie()
	tr.Insert(0x0a000000, 8, 1)  // 10/8
	tr.Insert(0x0a010000, 16, 2) // 10.1/16
	tr.Insert(0x0a010200, 24, 3) // 10.1.2/24
	cases := []struct {
		dst  uint32
		want uint32
	}{
		{0x0a000001, 1}, // 10.0.0.1 → /8
		{0x0a010001, 2}, // 10.1.0.1 → /16
		{0x0a010201, 3}, // 10.1.2.1 → /24
		{0x0b000001, NoRoute},
	}
	for _, c := range cases {
		if got := tr.LookupPlain(c.dst); got != c.want {
			t.Fatalf("Lookup(%#x) = %d, want %d", c.dst, got, c.want)
		}
	}
}

func TestNonAlignedPrefixExpansion(t *testing.T) {
	tr := newTrie()
	tr.Insert(0xC0000000, 3, 7) // 110.../3 does not align to 4-bit levels
	if got := tr.LookupPlain(0xC0ffffff); got != 7 {
		t.Fatalf("inside /3 = %d, want 7", got)
	}
	if got := tr.LookupPlain(0xE0000000); got != NoRoute {
		t.Fatalf("outside /3 = %d, want NoRoute", got)
	}
	if got := tr.LookupPlain(0xBfffffff); got != NoRoute {
		t.Fatalf("below /3 = %d, want NoRoute", got)
	}
}

func TestHostRoute(t *testing.T) {
	tr := newTrie()
	tr.Insert(0x01020304, 32, 5)
	if got := tr.LookupPlain(0x01020304); got != 5 {
		t.Fatalf("host route = %d, want 5", got)
	}
	if got := tr.LookupPlain(0x01020305); got != NoRoute {
		t.Fatalf("adjacent host = %d, want NoRoute", got)
	}
}

func TestOverwriteRoute(t *testing.T) {
	tr := newTrie()
	tr.Insert(0x0a000000, 8, 1)
	tr.Insert(0x0a000000, 8, 2)
	if got := tr.LookupPlain(0x0a000001); got != 2 {
		t.Fatalf("route = %d, want overwritten value 2", got)
	}
}

func TestInsertValidation(t *testing.T) {
	tr := newTrie()
	for _, f := range []func(){
		func() { tr.Insert(0, -1, 1) },
		func() { tr.Insert(0, 33, 1) },
		func() { tr.Insert(0, 8, NoRoute) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBadStridesPanic(t *testing.T) {
	for _, strides := range [][]int{{8, 8}, {40}, {0, 32}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("strides %v should panic", strides)
				}
			}()
			New(mem.NewArena(0), strides)
		}()
	}
}

// linearLPM is the reference implementation: scan all prefixes, keep the
// longest that covers dst.
type route struct {
	prefix uint32
	plen   int
	nh     uint32
}

func linearLPM(routes []route, dst uint32) uint32 {
	best, bestLen := NoRoute, -1
	for _, r := range routes {
		if dst&maskOf(r.plen) == r.prefix&maskOf(r.plen) && r.plen > bestLen {
			best, bestLen = r.nh, r.plen
		}
	}
	return best
}

// Property: the trie agrees with the linear scan on random tables and
// random lookups, for arbitrary prefix lengths including non-aligned ones.
func TestTrieMatchesLinearQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tr := newTrie()
		var routes []route
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			rt := route{prefix: r.Uint32(), plen: r.Intn(33), nh: uint32(i + 1)}
			rt.prefix &= maskOf(rt.plen)
			// Later inserts overwrite: mirror that in the reference by
			// removing earlier identical prefixes.
			for j := 0; j < len(routes); j++ {
				if routes[j].plen == rt.plen && routes[j].prefix == rt.prefix {
					routes = append(routes[:j], routes[j+1:]...)
					j--
				}
			}
			routes = append(routes, rt)
			tr.Insert(rt.prefix, rt.plen, rt.nh)
		}
		for i := 0; i < 200; i++ {
			dst := r.Uint32()
			if tr.LookupPlain(dst) != linearLPM(routes, dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTableProperties(t *testing.T) {
	tr := newTrie()
	RandomTable(tr, 5000, 7)
	if tr.Routes() != 5001 { // 5000 + default
		t.Fatalf("routes = %d", tr.Routes())
	}
	// Every lookup resolves (default route).
	r := rng.New(99)
	for i := 0; i < 1000; i++ {
		if tr.LookupPlain(r.Uint32()) == NoRoute {
			t.Fatal("lookup failed despite default route")
		}
	}
	if tr.SimBytes() == 0 || tr.Nodes() < 100 {
		t.Fatalf("table suspiciously small: %d nodes, %d bytes", tr.Nodes(), tr.SimBytes())
	}
}

func TestLookupEmitsTrace(t *testing.T) {
	tr := newTrie()
	tr.Insert(0x0a010200, 24, 3)
	var ctx click.Ctx
	tr.Lookup(&ctx, 0x0a010201)
	loads := 0
	for _, op := range ctx.Ops {
		if op.Addr != 0 {
			loads++
		}
	}
	// /24 = 8-bit root + 8 levels of 2 bits = 9 visited nodes, each
	// costing a descriptor load and an entry load.
	if loads != 18 {
		t.Fatalf("trace has %d node loads, want 18", loads)
	}
}

func TestLookupTraceMatchesPlain(t *testing.T) {
	tr := newTrie()
	RandomTable(tr, 2000, 3)
	var ctx click.Ctx
	r := rng.New(4)
	for i := 0; i < 500; i++ {
		dst := r.Uint32()
		ctx.Ops = ctx.Ops[:0]
		if tr.Lookup(&ctx, dst) != tr.LookupPlain(dst) {
			t.Fatalf("traced and plain lookups disagree for %#x", dst)
		}
	}
}

func TestDeterministicTableConstruction(t *testing.T) {
	a, b := newTrie(), newTrie()
	RandomTable(a, 1000, 5)
	RandomTable(b, 1000, 5)
	if a.Nodes() != b.Nodes() || a.SimBytes() != b.SimBytes() {
		t.Fatal("same seed produced different tables")
	}
	r := rng.New(6)
	for i := 0; i < 200; i++ {
		dst := r.Uint32()
		if a.LookupPlain(dst) != b.LookupPlain(dst) {
			t.Fatalf("tables disagree at %#x", dst)
		}
	}
}

// insertEach is the reference InsertAll must match: one Insert per route.
func insertEach(tr *RadixTrie, routes []Route) {
	for _, r := range routes {
		tr.Insert(r.Prefix, r.Len, r.NextHop)
	}
}

// randomTableEach is RandomTable as it was before the bulk path: the same
// draws in the same order, inserted one at a time.
func randomTableEach(tr *RadixTrie, n int, seed uint64) {
	r := rng.New(seed)
	tr.Insert(0, 0, 0)
	for i := 0; i < n; i++ {
		var plen int
		switch p := r.Float64(); {
		case p < 0.20:
			plen = 16
		case p < 0.40:
			plen = 20
		default:
			plen = 24
		}
		tr.Insert(r.Uint32(), plen, uint32(r.Intn(n))+1)
	}
}

func sameTrie(t *testing.T, what string, got, want *RadixTrie) {
	t.Helper()
	if !slices.Equal(got.entries, want.entries) || !slices.Equal(got.offset, want.offset) {
		t.Fatalf("%s: node arrays differ from one-at-a-time insertion (%d vs %d nodes, %d vs %d entries)",
			what, got.Nodes(), want.Nodes(), len(got.entries), len(want.entries))
	}
	if got.Routes() != want.Routes() || got.SimBytes() != want.SimBytes() {
		t.Fatalf("%s: routes %d / sim bytes %d, want %d / %d", what, got.Routes(), got.SimBytes(), want.Routes(), want.SimBytes())
	}
}

func TestInsertAllMatchesInsert(t *testing.T) {
	sets := map[string][]Route{
		"empty":        nil,
		"default only": {{0, 0, 1}},
		"host route":   {{0xc0a80101, 32, 1}},
		"duplicates":   {{0x0a010200, 24, 1}, {0x0a010200, 24, 2}, {0x0a0102ff, 24, 3}, {0x0a010000, 16, 4}, {0x0a010000, 16, 5}},
		"long first":   {{0x0a010200, 24, 1}, {0x0a000000, 8, 2}, {0x0a010203, 32, 3}, {0, 0, 4}},
		"short first":  {{0, 0, 4}, {0x0a000000, 8, 2}, {0x0a010200, 24, 1}, {0x0a010203, 32, 3}},
		"unaligned":    {{0xc0000000, 3, 1}, {0xc8000000, 5, 2}, {0xc0000000, 9, 3}, {0xc0400000, 11, 4}},
	}
	for seed := uint64(1); seed <= 4; seed++ {
		// Any length 0..32, prefixes crowded into a few /8s so deep nodes
		// are shared, revisited and overwritten.
		r := rng.New(seed)
		var set []Route
		for i, n := 0, []int{1, 50, 700, 4000}[seed-1]; i < n; i++ {
			set = append(set, Route{uint32(r.Intn(3))<<24 | r.Uint32()>>8, r.Intn(33), uint32(i + 1)})
		}
		sets[fmt.Sprintf("random seed %d", seed)] = set
	}
	for _, strides := range [][]int{nil, {16, 16}, {8, 8, 8, 8}, {4, 4, 4, 4, 4, 4, 4, 4}, {3, 13, 16}} {
		for name, set := range sets {
			if len(strides) < 4 && len(set) > 5 {
				continue // a 16-bit node is 768 KiB on the Go side
			}
			got, want := New(mem.NewArena(0), strides), New(mem.NewArena(0), strides)
			if err := got.InsertAll(slices.Values(set)); err != nil {
				t.Fatalf("%s, strides %v: %v", name, strides, err)
			}
			insertEach(want, set)
			sameTrie(t, fmt.Sprintf("%s, strides %v", name, strides), got, want)
		}
	}
	// A second bulk load lands on nodes the first created: the count is
	// then an upper bound, and the result still the one-at-a-time trie.
	got, want := newTrie(), newTrie()
	for _, name := range []string{"long first", "random seed 3", "duplicates", "random seed 4"} {
		if err := got.InsertAll(slices.Values(sets[name])); err != nil {
			t.Fatal(err)
		}
		insertEach(want, sets[name])
	}
	sameTrie(t, "four loads into one trie", got, want)

	sizes := []int{0, 1, 50, 4000}
	if !testing.Short() {
		sizes = append(sizes, 128000)
	}
	for i, n := range sizes {
		got, want := newTrie(), newTrie()
		RandomTable(got, n, uint64(i+1))
		randomTableEach(want, n, uint64(i+1))
		sameTrie(t, fmt.Sprintf("RandomTable(%d)", n), got, want)
	}
}

// TestInsertAllReplaysItsSequence: RandomTable's routes are a sequence
// regenerated on every range, never a list; the trie InsertAll builds
// from it equals, entry for entry, the one built from the same routes
// collected into a slice.
func TestInsertAllReplaysItsSequence(t *testing.T) {
	for i, n := range []int{0, 1, 50, 4000, 40000} {
		seq := randomRoutes(n, uint64(i+7))
		routes := slices.Collect(seq)
		if len(routes) != n+1 || !slices.Equal(slices.Collect(seq), routes) {
			t.Fatalf("n=%d: ranging the sequence twice gave %d then different routes, want the same %d", n, len(routes), n+1)
		}
		got, want := newTrie(), newTrie()
		if err := got.InsertAll(seq); err != nil {
			t.Fatal(err)
		}
		if err := want.InsertAll(slices.Values(routes)); err != nil {
			t.Fatal(err)
		}
		sameTrie(t, fmt.Sprintf("n=%d replayed", n), got, want)
	}
	for range randomRoutes(10, 1) {
		break // a sequence must stop when its consumer does
	}
}

// TestInsertAllSizesOnce pins what the bulk path is for: the node arrays
// are allocated once at the size they end with, so a build allocates a
// fixed number of objects whatever the table size.
func TestInsertAllSizesOnce(t *testing.T) {
	// The allocator rounds a request up to its size class: at most an
	// eighth for small objects, a page for large ones.
	slack := func(length, capacity, elem int) bool {
		return (capacity-length)*elem <= max(length*elem/8, 8192)
	}
	var allocs []float64
	for _, n := range []int{500, 4000, 40000} {
		tr := newTrie()
		RandomTable(tr, n, 9)
		if !slack(len(tr.entries), cap(tr.entries), int(unsafe.Sizeof(entry{}))) || !slack(len(tr.offset), cap(tr.offset), 4) {
			t.Errorf("n=%d: len/cap entries %d/%d, offset %d/%d: not sized in one step", n,
				len(tr.entries), cap(tr.entries), len(tr.offset), cap(tr.offset))
		}
		allocs = append(allocs, testing.AllocsPerRun(3, func() { RandomTable(newTrie(), n, 9) }))
	}
	for _, a := range allocs {
		if a != allocs[0] || a > 20 {
			t.Fatalf("allocations per build %v: want one small constant at every table size", allocs)
		}
	}
}

// TestEntryIsItsSimulatedSize: the host entry is the simulated one.
func TestEntryIsItsSimulatedSize(t *testing.T) {
	if unsafe.Sizeof(entry{}) != simEntryBytes {
		t.Fatalf("entry is %d host bytes, simulated as %d", unsafe.Sizeof(entry{}), simEntryBytes)
	}
}

// TestReservationChecked: a table past the simulated range New reserves
// must fail naming the limit, not alias the arena's next allocation.
// Sixteen-bit strides overflow the entry range at the 1024th second-level
// node; the count shows it before anything is allocated or inserted.
func TestReservationChecked(t *testing.T) {
	tr := New(mem.NewArena(0), []int{16, 16})
	routes := make([]Route, 1024)
	for i := range routes {
		routes[i] = Route{uint32(i) << 16, 32, 1}
	}
	if nodes, entries := tr.need(slices.Values(routes[:1023])); nodes != 1023 || 1<<16+entries != maxEntries {
		t.Fatalf("1023 second-level nodes: need = %d nodes, %d entries; want them to fill the reservation exactly", nodes, entries)
	}
	err := tr.InsertAll(slices.Values(routes))
	if err == nil || !strings.Contains(err.Error(), "67108864 entries") {
		t.Fatalf("1024 second-level nodes: err = %v, want the entry reservation named", err)
	}
	if tr.Routes() != 0 || tr.Nodes() != 1 || cap(tr.entries) != 1<<16 {
		t.Fatalf("InsertAll past the reservation left %d routes, %d nodes, room for %d entries; want the trie untouched", tr.Routes(), tr.Nodes(), cap(tr.entries))
	}
	if err := tr.reserve(maxNodes, 0); err == nil || !strings.Contains(err.Error(), "16777216 nodes") {
		t.Fatalf("one node past the descriptor range: err = %v, want the node reservation named", err)
	}
	// newNode makes the same call for one node, so single Inserts are
	// held to the same bound.
	if err := tr.reserve(1, maxEntries-1<<16+1); err == nil {
		t.Fatal("one entry past the entry range accepted")
	}
}

// TestNegativeRoutesRejected: ROUTES -5 used to build a table holding
// only the default route, silently.
func TestNegativeRoutesRejected(t *testing.T) {
	env := &click.Env{Arena: mem.NewArena(0), Seed: 1}
	_, err := click.ParseConfig(env, "neg", "src :: FromDevice(SIZE 64); src -> RadixIPLookup(ROUTES -5) -> ToDevice;")
	if err == nil || !strings.Contains(err.Error(), "RadixIPLookup") || !strings.Contains(err.Error(), "ROUTES") {
		t.Fatalf("ROUTES -5: err = %v, want an error naming the element and the key", err)
	}
}
