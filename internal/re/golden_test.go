package re

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"testing"

	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encode.sha256 from this build's output")

// TestEncodeGolden pins, across commits, what one Processor emits and
// returns for 2 000 seeded payloads of which about 30 % splice in a run of
// an earlier payload: every op (kind, address, cycles, instructions) and
// the Encoded — RawLen, the bytes matched and every segment, literal bytes
// included — plus the payloads processed and the sum of the bytes matched.
// The encode hash is the output of the tree before Process reused its
// scratch (90992de). Regenerate with
// `go test ./internal/re/ -run TestEncodeGolden -args -update` and say
// what moved.
func TestEncodeGolden(t *testing.T) {
	p := newProc()
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	var ctx click.Ctx
	r := rng.New(24)
	var history [][]byte
	var packets, matched int
	for i := 0; i < 2000; i++ {
		payload := make([]byte, 40+r.Intn(1400)) // some shorter than a window
		r.Fill(payload)
		if len(history) > 0 && r.Float64() < 0.30 {
			old := history[len(history)-1-r.Intn(min(len(history), 32))] // recent enough to still be indexed
			n := 1 + r.Intn(min(len(old), len(payload)))
			copy(payload[r.Intn(len(payload)-n+1):], old[r.Intn(len(old)-n+1):][:n])
		}
		history = append(history, payload)
		ctx.Ops = ctx.Ops[:0]
		enc := p.Process(&ctx, payload, hw.Addr(0x100000+64*(i%512)))
		packets, matched = packets+1, matched+matchedLen(enc)
		for _, op := range ctx.Ops {
			put(uint64(op.Kind))
			put(uint64(op.Addr))
			put(uint64(op.Cycles)<<32 | uint64(op.Instrs))
		}
		put(uint64(enc.RawLen))
		put(uint64(matchedLen(enc)))
		put(uint64(len(enc.Segments)))
		for _, s := range enc.Segments {
			if s.Match {
				put(1)
			} else {
				put(0)
			}
			put(s.Off)
			put(uint64(s.Len))
			put(uint64(len(s.Literal)))
			h.Write(s.Literal)
		}
	}
	got := fmt.Sprintf("packets=%d matched=%d encode=%x\n", packets, matched, h.Sum(nil))
	const path = "testdata/encode.sha256"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s moved:\n got %swant %s", path, got, want)
	}
}
