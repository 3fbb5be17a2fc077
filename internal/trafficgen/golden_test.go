package trafficgen

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"pktpredict/internal/dpi"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stream.sha256 from this build's output")

// TestStreamGolden pins, across commits, the bytes of the first 4 096
// packets of three generator shapes: fresh random tuples, a fixed flow
// set, and ids_chain.click's shaped source (signatures at a 6 % hit rate,
// half the payloads on a 4-value alphabet). Any change to Next's draws,
// header or payload moves a line. Regenerate with
// `go test ./internal/trafficgen/ -run TestStreamGolden -args -update`
// and say what moved.
func TestStreamGolden(t *testing.T) {
	shapes := []struct {
		name string
		spec Spec
	}{
		{"random", Spec{Seed: 1, Size: 64}},
		{"flows", Spec{Seed: 2, Size: 64, Flows: 4096}},
		{"ids_chain", Spec{Seed: 3, Size: 512, Flows: 4096, Signatures: dpi.Signatures(11, 16),
			SigHit: 0.06, LowEntropy: 0.5, LowEntropyBits: 2}},
	}
	var b strings.Builder
	for _, s := range shapes {
		g, h := New(s.spec), sha256.New()
		buf := make([]byte, s.spec.Size)
		for i := 0; i < 4096; i++ {
			h.Write(buf[:g.Next(buf)])
		}
		fmt.Fprintf(&b, "%s packets=4096 size=%d stream=%x\n", s.name, s.spec.Size, h.Sum(nil))
	}
	got := b.String()
	const path = "testdata/stream.sha256"
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
