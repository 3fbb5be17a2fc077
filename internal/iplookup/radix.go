// Package iplookup implements longest-prefix-match IPv4 route lookup with
// a multi-bit radix trie (controlled prefix expansion), the lookup
// structure behind the paper's IP-forwarding workload: "the RadixTrie
// lookup algorithm provided with the Click distribution and a routing
// table of 128000 entries".
//
// The trie's nodes live in simulated memory; every node visited during a
// lookup emits the corresponding load, so the structure's cache footprint
// — hot top levels, cold deep levels — emerges from real traversals of a
// real table. The strides are fine and fixed (an 8-bit root, then 2-bit
// levels), giving random-destination lookups the multi-node, multi-line
// walk that makes radix-trie IP lookup cache-hungry on the paper's
// platform.
//
// The host-side array is the simulated layout: 8 bytes an entry — the
// route, and one link word packing the child's node id above the route's
// original prefix length + 1, zero meaning "none" in both (the root is
// nobody's child). Nodes are allocated in id order and, the layout being
// fixed, node k's entries start at 0 for the root and 256 + 4·(k−1)
// otherwise: a walk makes one dependent load a level, and its step count
// is the level. A route set is sized before its first insert, by counting
// nodes over its masked prefixes radix-sorted in place, so the array is
// allocated once and a build takes time linear in the routes.
package iplookup

import (
	"fmt"
	"iter"
	"slices"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

// NoRoute is returned by Lookup when no prefix covers the address.
const NoRoute = ^uint32(0)

// The trie's one layout: an 8-bit root of rootEntries entries, then twelve
// levels of 2-bit nodes of nodeEntries each, covering lengths up to /32.
const rootBits, nodeBits, rootEntries, nodeEntries = 8, 2, 1 << 8, 1 << 2

// first returns the index of node k's first entry: 0 for the root, whose
// entries come first, then nodeEntries a node in id order, the order
// newNode allocates in. first(n) is also the entry count of n nodes.
func first(k int) int {
	if k == 0 {
		return 0
	}
	return rootEntries + (k-1)*nodeEntries
}

// entry is one slot of a trie node. Entries are stored in a single flat
// array (a node's are consecutive, from first(node)), and an entry is the
// eight bytes it is simulated as; the zero entry is empty.
type entry struct {
	route uint32 // the next hop, if link holds a prefix length
	link  uint32 // child node id << plenBits (0: none) | route's original prefix length + 1 (0: none)
}

// plenBits holds a prefix length + 1 (at most 33); the other childBits of
// link hold a node id, which reserve keeps below maxNodes.
const plenBits, childBits, plenMask = 8, 32 - plenBits, 1<<plenBits - 1

// simEntryBytes is each entry's simulated size.
const simEntryBytes = 8

// maxEntries and maxNodes are what New reserves of simulated address
// space; a table past either would alias its arena's next allocation.
const maxEntries, maxNodes = 1 << 26, 1 << childBits

// reserve makes room for that many more nodes and their entries, or
// fails if the trie would outgrow the reservation.
func (t *RadixTrie) reserve(nodes int) error {
	n := t.nodes + nodes
	e := first(n)
	if n > maxNodes || e > maxEntries {
		return fmt.Errorf("iplookup: a table of %d nodes and %d entries is past the %d nodes or %d entries of simulated address space reserved for one", n, e, maxNodes, maxEntries)
	}
	t.entries = slices.Grow(t.entries, e-len(t.entries))
	return nil
}

// RadixTrie is a multi-bit trie over IPv4 prefixes. Prefix lengths that
// do not align with a level boundary are expanded into the covering level
// (controlled prefix expansion), preserving exact longest-prefix-match
// semantics.
type RadixTrie struct {
	entries []entry
	nodes   int     // allocated nodes; node k's entries start at first(k)
	base    hw.Addr // simulated base of the entry array
	hdrBase hw.Addr // simulated base of the node-descriptor array
	arena   *mem.Arena
	routes  int
}

// New builds an empty trie allocating node memory from arena.
func New(arena *mem.Arena) *RadixTrie {
	t := &RadixTrie{arena: arena}
	// Reserve generous contiguous simulated ranges for entries and node
	// descriptors; actual usage is bounded by insertions. 1<<26 entries
	// × 8 B = 512 MiB of address space, of which only allocated entries
	// are ever touched — recordFootprint reports the touched extent once
	// the table is populated, so the reservation never counts as state.
	t.base = arena.Reserve(maxEntries*simEntryBytes, hw.LineSize)
	t.hdrBase = arena.Reserve(maxNodes*8, hw.LineSize)
	t.newNode() // root
	return t
}

// recordFootprint reports the trie's touched extents to the arena's
// binding record: the bytes lookups actually reference, and the bytes a
// state migration would copy. Call it after the table is populated.
func (t *RadixTrie) recordFootprint() {
	t.arena.Record(t.base, uint64(len(t.entries))*simEntryBytes)
	t.arena.Record(t.hdrBase, uint64(t.nodes)*8)
}

// newNode appends the next node's entries and returns its id. They are
// empty: reserve grew the array, so past its length it holds zeros.
func (t *RadixTrie) newNode() int {
	if err := t.reserve(1); err != nil {
		panic(err)
	}
	t.nodes++
	t.entries = t.entries[:first(t.nodes)]
	return t.nodes - 1
}

// entryAddr returns the simulated address of entry index e.
func (t *RadixTrie) entryAddr(e int) hw.Addr {
	return t.base + hw.Addr(uint64(e)*simEntryBytes)
}

// Routes returns the number of inserted prefixes.
func (t *RadixTrie) Routes() int { return t.routes }

// Nodes returns the number of allocated trie nodes.
func (t *RadixTrie) Nodes() int { return t.nodes }

// SimBytes returns the trie's simulated memory footprint (entries
// actually allocated, not the reserved range).
func (t *RadixTrie) SimBytes() uint64 {
	return uint64(len(t.entries)) * simEntryBytes
}

// Insert adds a route for prefix/plen. Later inserts for the same prefix
// overwrite earlier ones. Inserting plen 0 sets the default route.
func (t *RadixTrie) Insert(prefix uint32, plen int, nexthop uint32) {
	if plen < 0 || plen > 32 {
		panic(fmt.Sprintf("iplookup: prefix length %d invalid", plen))
	}
	if nexthop == NoRoute {
		panic("iplookup: nexthop collides with NoRoute sentinel")
	}
	prefix &= maskOf(plen)
	t.insert(prefix, plen, nexthop)
	t.routes++
}

// Route is one prefix → next-hop binding of a route set.
type Route struct {
	Prefix  uint32
	Len     int
	NextHop uint32
}

// InsertAll is Insert over a set of n routes in order, with the entry
// array sized for the whole set first, in one step. It ranges routes
// twice, to size and to insert, so they must come in the same sequence
// both times; a generated table need never be held as a list. n sizes the
// one allocation that sizing takes (a wrong n costs only allocations). A
// set that does not fit the reserved simulated range fails before any
// insert.
func (t *RadixTrie) InsertAll(routes iter.Seq[Route], n int) error {
	if err := t.reserve(t.need(routes, n)); err != nil {
		return err
	}
	// Called, not ranged over: a range-over-func loop puts one more object
	// per loop on the heap, and TestInsertAllSizesOnce counts a build's.
	routes(func(r Route) bool {
		t.Insert(r.Prefix, r.Len, r.NextHop)
		return true
	})
	return nil
}

// need counts the nodes inserting routes, a set of n, adds, exactly for a
// trie holding no routes (an upper bound once some exist): the level below
// boundary b has a node per distinct cut at b of the prefixes longer than
// b. Sorted, equal cuts are adjacent at every b, so each key climbs from
// the deepest boundary its length passes to the first where its cut is the
// last counted (the keys since share it, and so every shallower cut).
func (t *RadixTrie) need(routes iter.Seq[Route], n int) (nodes int) {
	keys := make([]uint64, 0, n) // masked prefix << 8 | length: 40 bits, so the top byte is at 32
	routes(func(r Route) bool {
		keys = append(keys, uint64(r.Prefix&maskOf(r.Len))<<8|uint64(r.Len))
		return true
	})
	sortKeys(keys, 32)
	var last [(32 - rootBits) / nodeBits]uint64 // the last cut + 1 at each boundary, 0: none
	for _, k := range keys {
		for l := min(len(last), (int(k&0xff)-rootBits+1)/nodeBits) - 1; l >= 0; l-- {
			cut := k>>(40-rootBits-l*nodeBits) + 1
			if cut == last[l] {
				break
			}
			last[l] = cut
			nodes++
		}
	}
	return nodes
}

// sortKeys sorts keys, which agree above the byte at shift, in place and
// allocation-free (an American-flag sort): it swaps each key into the next
// free slot of its bucket by that byte, then sorts a bucket of over 32 keys
// on the next byte down and a smaller one by comparison.
func sortKeys(keys []uint64, shift uint) {
	var next, end [256]int // bucket d's first unplaced slot, and its end
	for _, k := range keys {
		end[byte(k>>shift)]++
	}
	for d, sum := 0, 0; d < len(end); d++ {
		next[d], sum = sum, sum+end[d]
		end[d] = sum
	}
	for b := range next {
		for i := next[b]; i < end[b]; i = next[b] {
			k := keys[i]
			for d := byte(k >> shift); int(d) != b; d = byte(k >> shift) {
				keys[next[d]], k = k, keys[next[d]]
				next[d]++
			}
			keys[i] = k
			next[b]++
		}
	}
	for d, lo := 0, 0; d < len(end); d++ {
		if bucket := keys[lo:end[d]]; len(bucket) > 32 && shift > 0 {
			sortKeys(bucket, shift-8)
		} else if len(bucket) > 1 {
			slices.Sort(bucket)
		}
		lo = end[d]
	}
}

func maskOf(plen int) uint32 {
	if plen == 0 {
		return 0
	}
	return ^uint32(0) << (32 - plen)
}

// insert walks from the root to the level whose boundary covers plen,
// expanding the prefix across all entries it covers at that level. A walk
// descends one level per step, so a node's level is the step count and no
// array keeps it.
func (t *RadixTrie) insert(prefix uint32, plen int, nexthop uint32) {
	off, depth, stride := 0, 0, rootBits
	for {
		index := int(prefix>>(32-depth-stride)) & (1<<stride - 1)
		if plen <= depth+stride {
			// The prefix ends at or within this level: expand it over all
			// entries whose top bits match. A longer prefix expanded earlier
			// onto the same entries keeps precedence.
			span := 1 << (stride - max(plen-depth, 0))
			start := off + index&^(span-1)
			for i := start; i < start+span; i++ {
				e := &t.entries[i]
				if int(e.link&plenMask) <= plen+1 {
					e.route = nexthop
					e.link = e.link&^plenMask | uint32(plen+1)
				}
			}
			return
		}
		child := int(t.entries[off+index].link >> plenBits)
		if child == 0 { // the root is nobody's child
			child = t.newNode()
			t.entries[off+index].link |= uint32(child) << plenBits
		}
		off, depth, stride = first(child), depth+stride, nodeBits
	}
}

// Lookup returns the longest-prefix-match next hop for dst, emitting the
// trace of the traversal into ctx: each visited node costs a descriptor
// load (the stride/occupancy word a compressed multibit trie reads
// first) and an entry load, as tree-bitmap-style lookup structures do.
//
//dataplane:stamped emits under the caller's Ctx bracket (called from Element.Process)
func (t *RadixTrie) Lookup(ctx *click.Ctx, dst uint32) uint32 {
	best := NoRoute
	node, shift, mask := 0, 32-rootBits, uint32(rootEntries-1)
	for {
		ctx.Load(t.hdrBase + hw.Addr(uint64(node)*8))
		i := first(node) + int(dst>>shift&mask)
		e := t.entries[i]
		ctx.Load(t.entryAddr(i))
		ctx.Compute(7, 9) // shift/mask/branch per level
		if e.link&plenMask != 0 {
			best = e.route
		}
		if e.link>>plenBits == 0 {
			return best
		}
		node, shift, mask = int(e.link>>plenBits), shift-nodeBits, nodeEntries-1
	}
}

// LookupPlain is Lookup without trace emission, for tests and table
// verification.
func (t *RadixTrie) LookupPlain(dst uint32) uint32 {
	best := NoRoute
	node, shift, mask := 0, 32-rootBits, uint32(rootEntries-1)
	for {
		e := t.entries[first(node)+int(dst>>shift&mask)]
		if e.link&plenMask != 0 {
			best = e.route
		}
		if e.link>>plenBits == 0 {
			return best
		}
		node, shift, mask = int(e.link>>plenBits), shift-nodeBits, nodeEntries-1
	}
}

// RandomTable fills the trie with n routes whose prefix lengths follow a
// backbone-like mix (20% /16, 20% /20, 60% /24), plus a default route,
// mirroring the paper's 128000-entry table loaded with random prefixes.
// Next hops index an adjacency table of n+1 entries (see Element).
func RandomTable(t *RadixTrie, n int, seed uint64) {
	if err := t.InsertAll(randomRoutes(n, seed), n+1); err != nil {
		panic(err) // out of reach of this mix: at most ~5.6M nodes at any n
	}
}

// randomRoutes is RandomTable's route set: the default route, then n
// drawn routes. Each range restarts a copy of the seeded generator (a
// value: no allocation per range), so every range yields the same routes
// in the same order.
func randomRoutes(n int, seed uint64) iter.Seq[Route] {
	start := *rng.New(seed)
	return func(yield func(Route) bool) {
		if !yield(Route{}) { // the default route: every lookup resolves
			return
		}
		r := start
		for range n {
			var plen int
			switch p := r.Float64(); {
			case p < 0.20:
				plen = 16
			case p < 0.40:
				plen = 20
			default:
				plen = 24
			}
			if !yield(Route{r.Uint32(), plen, uint32(r.Intn(n)) + 1}) {
				return
			}
		}
	}
}
