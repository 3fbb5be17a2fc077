package iplookup

import (
	"encoding/binary"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
)

// fnRadixLookup matches the paper's radix_ip_lookup profile symbol.
var fnRadixLookup = hw.RegisterFunc("radix_ip_lookup")

// Element is the RadixIPLookup click element: it looks up each packet's
// destination in the trie and reads the matched route's adjacency entry
// (next-hop address, output port, MAC rewrite info — the data a real
// forwarding path loads after the longest-prefix match). Packets without
// a route are dropped.
type Element struct {
	Trie *RadixTrie
	adj  mem.Region // adjacency table: one line-padded entry per route
}

// NewElement wraps an existing trie, allocating the adjacency table for
// adjEntries next hops from arena.
func NewElement(trie *RadixTrie, arena *mem.Arena, adjEntries int) *Element {
	return &Element{
		Trie: trie,
		adj:  mem.NewRegion(arena, adjEntries, hw.LineSize, true),
	}
}

// Process implements click.Element.
func (e *Element) Process(ctx *click.Ctx, p *click.Packet) click.Verdict {
	old := ctx.SetFunc(fnRadixLookup)
	defer ctx.SetFunc(old)
	// The destination is in the already-loaded header line; reading it is
	// an L1 hit but still a reference.
	ctx.Load(p.Addr + 16)
	dst := binary.BigEndian.Uint32(p.Data[16:])
	nh := e.Trie.Lookup(ctx, dst)
	if nh == NoRoute {
		ctx.Compute(8, 8)
		return click.Drop
	}
	// Read the adjacency entry for the matched route.
	ctx.Load(e.adj.Addr(int(nh) % e.adj.Count))
	ctx.Compute(12, 10)
	return click.Continue
}

// lookupArgs is what RadixIPLookup(...) decodes into.
type lookupArgs struct {
	routes int
	seed   uint64
}

func init() {
	click.Register("RadixIPLookup", []click.Key[lookupArgs]{
		click.Int("ROUTES", "[0,)", func(a *lookupArgs) *int { return &a.routes }),
		click.Uint("SEED", "", func(a *lookupArgs) *uint64 { return &a.seed }),
	}, func(env *click.Env) lookupArgs {
		return lookupArgs{routes: 128000, seed: env.Seed}
	}, func(env *click.Env, a lookupArgs) (interface{}, error) {
		t := New(env.Arena)
		RandomTable(t, a.routes, a.seed)
		t.recordFootprint()
		return NewElement(t, env.Arena, a.routes+1), nil
	})
}
