// Package dpi implements the engines behind the IDS workload class: a
// compiled multi-pattern signature matcher, a sampled Shannon-entropy
// estimator, and an LRU ban/verdict table (a flowtab.Table, as NetFlow's
// and the NAT's are). The click elements wrapping them live in
// internal/elements; the engines here do the real work on real payload
// bytes and expose the simulated-memory regions the elements emit their
// traces against.
//
// The IDS class exists to stress the prediction model with per-packet
// cost heterogeneity the NAT/firewall/monitor workloads lack: a cheap
// always-on scan over every payload byte, an expensive
// (hundreds-of-nanoseconds) entropy estimate on the suspect path only,
// and a second large mutable state table whose placement matters.
package dpi

import (
	"fmt"

	"pktpredict/internal/hw"
	"pktpredict/internal/mem"
	"pktpredict/internal/rng"
)

// Signature length bounds for derived sets: long enough that a random
// payload cannot contain one by accident, short enough to keep the
// compiled automaton small.
const (
	SigMinLen = 8
	SigMaxLen = 16
)

// Compiler limits. The automaton's dense transition table costs
// 1 KiB per state and there is one state per distinct pattern-prefix
// byte, so these bounds cap a table at a few MiB — generous for any
// experiment, small enough that adversarial configurations (and the
// fuzzer) cannot balloon the build.
const (
	MaxPatterns     = 256
	MaxPatternBytes = 4096
)

// Signatures derives a deterministic signature set from a seed: n
// byte patterns of SigMinLen..SigMaxLen random bytes. The traffic
// generator and the classifier derive the same set from the same seed,
// which is how a scenario controls its signature-hit rate exactly.
func Signatures(seed uint64, n int) [][]byte {
	r := rng.New(seed ^ 0x51697a7ab1e5)
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, SigMinLen+r.Intn(SigMaxLen-SigMinLen+1))
		r.Fill(b)
		out[i] = b
	}
	return out
}

// SigTable is a multi-pattern matcher compiled at construction: an
// Aho-Corasick automaton flattened to a dense DFA, so the scan loop is
// one table transition plus one output check per payload byte — no
// per-packet setup, no allocation, no backtracking.
//
// The transition table's simulated footprint (one 1 KiB row per state,
// allocated from the arena under the building element's label) is what
// the classifier element's trace touches, so the automaton shows up in
// the cache model exactly as large as it really is.
type SigTable struct {
	// trans is the dense DFA: trans[state<<8|byte] is the next state.
	trans []int32
	// out[state] is the lowest matching pattern id + 1 reachable at
	// state (via its suffix chain), 0 when none.
	out    []int32
	region mem.Region // one row of 256 int32 transitions per state
}

// NewSigTable compiles patterns into a matcher and allocates the
// transition table's simulated rows from arena. Empty patterns, and
// sets beyond the compiler limits, are rejected.
func NewSigTable(arena *mem.Arena, patterns [][]byte) (*SigTable, error) {
	if len(patterns) > MaxPatterns {
		return nil, fmt.Errorf("dpi: %d patterns exceed the %d-pattern limit", len(patterns), MaxPatterns)
	}
	total := 0
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("dpi: pattern %d is empty", i)
		}
		total += len(p)
	}
	if total > MaxPatternBytes {
		return nil, fmt.Errorf("dpi: %d total pattern bytes exceed the %d-byte limit", total, MaxPatternBytes)
	}

	// Trie construction. State 0 is the root; goto_[s][c] is -1 where
	// the trie has no edge.
	maxStates := total + 1
	goto_ := make([]int32, maxStates*256)
	for i := range goto_ {
		goto_[i] = -1
	}
	out := make([]int32, maxStates)
	states := int32(1)
	for id, p := range patterns {
		s := int32(0)
		for _, c := range p {
			if goto_[int(s)<<8|int(c)] < 0 {
				goto_[int(s)<<8|int(c)] = states
				states++
			}
			s = goto_[int(s)<<8|int(c)]
		}
		if out[s] == 0 || int32(id+1) < out[s] {
			out[s] = int32(id + 1)
		}
	}

	// Breadth-first failure links, merging outputs down the suffix
	// chain, then flatten to a dense DFA: missing edges take the fail
	// state's (already dense) transition.
	fail := make([]int32, states)
	queue := make([]int32, 0, states)
	for c := 0; c < 256; c++ {
		if nxt := goto_[c]; nxt >= 0 {
			queue = append(queue, nxt)
		} else {
			goto_[c] = 0
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if o := out[fail[s]]; o != 0 && (out[s] == 0 || o < out[s]) {
			out[s] = o
		}
		for c := 0; c < 256; c++ {
			nxt := goto_[int(s)<<8|c]
			if nxt < 0 {
				goto_[int(s)<<8|c] = goto_[int(fail[s])<<8|c]
				continue
			}
			fail[nxt] = goto_[int(fail[s])<<8|c]
			queue = append(queue, nxt)
		}
	}

	return &SigTable{
		trans:  goto_[:int(states)*256],
		out:    out[:states],
		region: mem.NewRegion(arena, int(states), 256*4, false),
	}, nil
}

// States returns the automaton's state count.
func (t *SigTable) States() int { return len(t.out) }

// SimBytes returns the transition table's simulated footprint.
func (t *SigTable) SimBytes() uint64 { return t.region.Size() }

// RowAddr returns the simulated address of automaton row i (mod the
// state count) — the classifier element samples these to model the
// data-dependent table walk.
func (t *SigTable) RowAddr(i int) hw.Addr {
	return t.region.Addr(i % t.region.Count)
}

// Match scans b and returns the lowest pattern index that occurs
// anywhere in it, or -1. This is the IDS fast path: every payload byte
// of every packet goes through this loop.
//
//dataplane:hotpath
func (t *SigTable) Match(b []byte) int {
	s := int32(0)
	best := int32(0)
	trans, outs := t.trans, t.out
	for i := 0; i < len(b); i++ {
		s = trans[int(s)<<8|int(b[i])]
		if o := outs[s]; o != 0 && (best == 0 || o < best) {
			best = o
		}
	}
	return int(best) - 1
}
