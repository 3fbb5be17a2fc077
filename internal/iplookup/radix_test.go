package iplookup

import (
	"encoding/binary"
	"fmt"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"pktpredict/internal/click"
	_ "pktpredict/internal/elements" // FromDevice and ToDevice, for ParseConfig
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

func newTrie() *RadixTrie { return New(mem.NewArena(0)) }

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
	if !slices.Equal(got.entries, want.entries) || got.Nodes() != want.Nodes() {
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
	for name, set := range sets {
		got, want := newTrie(), newTrie()
		if err := got.InsertAll(slices.Values(set), len(set)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		insertEach(want, set)
		sameTrie(t, name, got, want)
	}
	// A second bulk load lands on nodes the first created: the count is
	// then an upper bound, and the result still the one-at-a-time trie.
	got, want := newTrie(), newTrie()
	for _, name := range []string{"long first", "random seed 3", "duplicates", "random seed 4"} {
		if err := got.InsertAll(slices.Values(sets[name]), len(sets[name])); err != nil {
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
		if err := got.InsertAll(seq, n+1); err != nil {
			t.Fatal(err)
		}
		if err := want.InsertAll(slices.Values(routes), len(routes)); err != nil {
			t.Fatal(err)
		}
		sameTrie(t, fmt.Sprintf("n=%d replayed", n), got, want)
	}
	for range randomRoutes(10, 1) {
		break // a sequence must stop when its consumer does
	}
}

// checkNeed: need on a fresh trie counts exactly the nodes that one
// Insert a route adds, and InsertAll builds the one-at-a-time trie.
func checkNeed(t *testing.T, name string, set []Route) {
	t.Helper()
	got, want := newTrie(), newTrie()
	need := got.need(slices.Values(set), len(set))
	insertEach(want, set)
	if need != want.Nodes()-1 {
		t.Fatalf("%s: need = %d nodes, one Insert a route added %d", name, need, want.Nodes()-1)
	}
	if wrong := got.need(slices.Values(set), len(set)/2); wrong != need {
		t.Fatalf("%s: need given half the set's size = %d nodes, given its size %d", name, wrong, need)
	}
	if err := got.InsertAll(slices.Values(set), len(set)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameTrie(t, name, got, want)
}

// TestNeedCountsInsertedNodes drives need's sort through each of its
// cases: keys equal in every byte, differing only in the length byte or
// only in the top one, and sets just below, at and above the 32 keys up
// to which a bucket is sorted by comparison, spread over the address
// space or crowded into one /16 so that every byte is bucketed.
func TestNeedCountsInsertedNodes(t *testing.T) {
	sets := map[string][]Route{
		"empty":      nil,
		"/0 alone":   {{0, 0, 1}},
		"/32":        {{0xc0a80101, 32, 1}},
		"duplicates": {{0x0a010200, 24, 1}, {0x0a010200, 24, 2}, {0x0a0102ff, 24, 3}, {0x0a010000, 16, 4}, {0x0a010000, 16, 5}},
	}
	for b := rootBits; b <= 32; b += nodeBits {
		var set []Route
		for l := b - 1; l <= min(b+1, 32); l++ {
			set = append(set, Route{0xdeadbeef, l, uint32(len(set) + 1)}, Route{0x21436587, l, uint32(len(set) + 2)})
		}
		sets[fmt.Sprintf("lengths %d..%d", b-1, min(b+1, 32))] = set
	}
	var same, lengths, tops []Route
	for i := range 40 {
		same = append(same, Route{0x01020304, 32, uint32(i + 1)})
	}
	for l := range 33 {
		lengths = append(lengths, Route{0, l, uint32(l + 1)})
	}
	for b := range 256 {
		tops = append(tops, Route{uint32(b)<<24 | 0x123456, 32, uint32(b + 1)})
	}
	sets["one /32 forty times"], sets["only the length differs"], sets["only the top byte differs"] = same, lengths, tops
	for _, n := range []int{31, 32, 33, 257} {
		r := rng.New(uint64(n))
		var spread, crowded []Route
		for i := range n {
			spread = append(spread, Route{r.Uint32(), r.Intn(33), uint32(i + 1)})
			crowded = append(crowded, Route{0x0a0b0000 | r.Uint32()>>16, 16 + r.Intn(17), uint32(i + 1)})
		}
		sets[fmt.Sprintf("%d spread", n)], sets[fmt.Sprintf("%d in one /16", n)] = spread, crowded
	}
	if !testing.Short() {
		sets["RandomTable(128000)"] = slices.Collect(randomRoutes(128000, 1))
	}
	for name, set := range sets {
		checkNeed(t, name, set)
	}
}

// FuzzNeed: any route set — five bytes a route, a prefix and a length —
// is sized exactly and bulk-loaded as one Insert a route loads it.
func FuzzNeed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xc0, 0xa8, 0x01, 0x01, 32})
	f.Add([]byte{0x0a, 0x01, 0x02, 0x00, 24, 0x0a, 0x01, 0x02, 0x00, 24, 0x0a, 0x01, 0x00, 0x00, 16, 0, 0, 0, 0, 0})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 7, 0xde, 0xad, 0xbe, 0xef, 8, 0xde, 0xad, 0xbe, 0xef, 9, 0xde, 0xad, 0xbe, 0xef, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		var set []Route
		for ; len(data) >= 5; data = data[5:] {
			set = append(set, Route{binary.BigEndian.Uint32(data), int(data[4]) % 33, uint32(len(set) + 1)})
		}
		checkNeed(t, "fuzzed set", set)
	})
}

// TestInsertAllSizesOnce pins what the bulk path is for: the node arrays
// is allocated once at the size it ends with, so a build allocates a
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
		if !slack(len(tr.entries), cap(tr.entries), int(unsafe.Sizeof(entry{}))) {
			t.Errorf("n=%d: len/cap entries %d/%d: not sized in one step", n, len(tr.entries), cap(tr.entries))
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
// must fail naming the limit, not alias the arena's next allocation. The
// entry range binds first, at 2^24 - 63 nodes; a trie that big is 512 MiB
// of host entries, so the test sets the node count the check reads — the
// entries follow from it — and shows the check before anything grows.
func TestReservationChecked(t *testing.T) {
	tr := newTrie()
	// A host route needs a node at each of the twelve 2-bit levels.
	host := slices.Values([]Route{{0x01020304, 32, 1}})
	if got := tr.need(host, 1); got != 12 {
		t.Fatalf("one /32: need = %d nodes, want 12", got)
	}
	full := (maxEntries-rootEntries)/nodeEntries + 1 // the nodes whose entries fill the range
	if first(full) != maxEntries || full > maxNodes {
		t.Fatalf("%d nodes end at entry %d; want the entry range, %d, to bind before the %d nodes", full, first(full), maxEntries, maxNodes)
	}
	tr.nodes = full - 11 // a host route now needs one node past the range
	err := tr.InsertAll(host, 1)
	if err == nil || !strings.Contains(err.Error(), "67108864 entries") {
		t.Fatalf("one node past the entry range: err = %v, want the entry reservation named", err)
	}
	if tr.Routes() != 0 || tr.Nodes() != full-11 || cap(tr.entries) != rootEntries || tr.entries[1].link != 0 {
		t.Fatalf("InsertAll past the reservation left %d routes, %d nodes, room for %d entries; want the trie untouched", tr.Routes(), tr.Nodes(), cap(tr.entries))
	}
	tr.nodes = 1
	if err := tr.reserve(maxNodes); err == nil || !strings.Contains(err.Error(), "16777216 nodes") {
		t.Fatalf("one node past the descriptor range: err = %v, want the node reservation named", err)
	}
	// newNode makes the same check for one node, so single Inserts are
	// held to the same bound.
	tr.nodes = full
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "67108864 entries") {
				t.Fatalf("a single Insert past the entry range: panic %v, want the entry reservation named", r)
			}
		}()
		tr.Insert(0x01020304, 32, 1)
	}()
}

// TestNodeOffsetsFollowLayout: the entry array holds the root's 256
// entries, then 4 a node in id order, with nothing before, between or
// after — so a node's offset is arithmetic on its id. Every node but the
// root is one entry's child, and is allocated after its parent.
func TestNodeOffsetsFollowLayout(t *testing.T) {
	for _, n := range []int{500, 20000, 128000} {
		tr := newTrie()
		RandomTable(tr, n, uint64(n)+1)
		if len(tr.entries) != 256+4*(tr.Nodes()-1) {
			t.Fatalf("n=%d: %d entries for %d nodes, want 256 + 4 a node", n, len(tr.entries), tr.Nodes())
		}
		parent := make([]int, tr.Nodes()) // parent id + 1, 0: no link seen yet
		for k := range tr.Nodes() {
			start := 0
			if k > 0 {
				start = 256 + 4*(k-1)
			}
			if first(k) != start {
				t.Fatalf("n=%d: node %d starts at entry %d, want %d", n, k, first(k), start)
			}
			for _, e := range tr.entries[start:first(k+1)] {
				c := int(e.link >> plenBits)
				if c == 0 {
					continue
				}
				if c <= k || parent[c] != 0 {
					t.Fatalf("n=%d: node %d links child %d, linked before from node %d; want one link a node, from an earlier one", n, k, c, parent[c]-1)
				}
				parent[c] = k + 1
			}
		}
		if i := slices.Index(parent[1:], 0); i >= 0 {
			t.Fatalf("n=%d: node %d is nobody's child", n, i+1)
		}
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

// BenchmarkRandomTable times the build half of the trie at the paper's
// table size: the one-step sizing and the insert walk.
func BenchmarkRandomTable(b *testing.B) {
	b.ReportAllocs()
	for i := range b.N {
		RandomTable(newTrie(), 128000, uint64(i)+1)
	}
}

// BenchmarkLookup times the per-packet half: one traced Lookup of a
// random destination in a 128 000-route table. Where the host puts the
// table's 9.9 MB entries array moves the time as much as Lookup's code
// does (two binaries with the same Lookup measured 344 and 442 ns), so it
// builds four tables, each after a spacer allocation of a different size,
// splits b.N between them, and reports the fastest and slowest
// placement's ns/lookup and their spread: a change smaller than the
// spread cannot be judged from one run.
func BenchmarkLookup(b *testing.B) {
	dst := make([]uint32, 1<<16)
	r := rng.New(2)
	for i := range dst {
		dst[i] = r.Uint32()
	}
	var spacers [][]byte
	var tries []*RadixTrie
	for _, kib := range []int{0, 24, 136, 1064} {
		spacers = append(spacers, make([]byte, kib<<10))
		tr := newTrie()
		RandomTable(tr, 128000, 1)
		tries = append(tries, tr)
	}
	var ctx click.Ctx
	ns := make([]float64, len(tries))
	b.ResetTimer()
	for k, tr := range tries {
		n := (b.N + k) / len(tries) // the parts sum to b.N
		start := time.Now()
		for i := range n {
			ctx.Ops = ctx.Ops[:0]
			tr.Lookup(&ctx, dst[i&(len(dst)-1)])
		}
		ns[k] = float64(time.Since(start).Nanoseconds()) / float64(max(n, 1))
	}
	b.StopTimer()
	goruntime.KeepAlive(spacers)
	if b.N >= len(tries) {
		lo, hi := slices.Min(ns), slices.Max(ns)
		b.ReportMetric(lo, "min-ns/lookup")
		b.ReportMetric(hi, "max-ns/lookup")
		b.ReportMetric(100*(hi/lo-1), "spread-%")
	}
}

// BenchmarkNeed times the sizing pass alone at the paper's table size:
// collecting the masked keys, sorting them and counting every level.
func BenchmarkNeed(b *testing.B) {
	b.ReportAllocs()
	tr, routes := newTrie(), randomRoutes(128000, 1)
	for b.Loop() {
		tr.need(routes, 128001)
	}
}
