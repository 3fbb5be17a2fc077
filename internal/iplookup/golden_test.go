package iplookup

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/lookup_ops.sha256 from this build's output")

// TestLookupOpsGolden pins, across commits, everything the trie shows the
// simulated machine: every op (kind, address, cycles, instructions) 20 000
// seeded Lookups emit, the next hops they return, and the table's node,
// byte and route counts — at a size below, at and above what the engine
// digest reaches. The file is the output of the tree before the 8-byte
// entry (90992de); a host-layout change must leave it byte for byte.
// Regenerate with `go test ./internal/iplookup/ -run TestLookupOpsGolden -args -update`
// and say which address moved.
func TestLookupOpsGolden(t *testing.T) {
	var got strings.Builder
	for _, n := range []int{500, 20000, 128000} {
		tr := newTrie()
		RandomTable(tr, n, uint64(n)+1)
		h := sha256.New()
		var word [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
		var ctx click.Ctx
		r := rng.New(uint64(n) + 2)
		for i := 0; i < 20000; i++ {
			ctx.Ops = ctx.Ops[:0]
			put(uint64(tr.Lookup(&ctx, r.Uint32())))
			for _, op := range ctx.Ops {
				put(uint64(op.Kind))
				put(uint64(op.Addr))
				put(uint64(op.Cycles)<<32 | uint64(op.Instrs))
			}
		}
		fmt.Fprintf(&got, "n=%d nodes=%d simbytes=%d routes=%d ops=%x\n", n, tr.Nodes(), tr.SimBytes(), tr.Routes(), h.Sum(nil))
	}
	const path = "testdata/lookup_ops.sha256"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("%s moved:\n got %swant %s", path, got.String(), want)
	}
}
