package dpi

import (
	"bytes"
	"testing"

	"pktpredict/internal/mem"
)

// naiveMatch is the reference the compiled matcher must agree with: the
// lowest pattern index occurring anywhere in hay.
func naiveMatch(patterns [][]byte, hay []byte) int {
	for i, p := range patterns {
		if bytes.Contains(hay, p) {
			return i
		}
	}
	return -1
}

// carvePatterns splits fuzz input into a pattern set and a haystack:
// the first byte picks the pattern count, each pattern takes a length
// byte plus that many bytes, and whatever remains is the haystack.
func carvePatterns(data []byte) ([][]byte, []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	n := int(data[0]&0x0f) + 1
	data = data[1:]
	patterns := make([][]byte, 0, n)
	for i := 0; i < n && len(data) > 0; i++ {
		l := int(data[0]&0x1f) + 1
		data = data[1:]
		if l > len(data) {
			l = len(data)
		}
		if l == 0 {
			break
		}
		patterns = append(patterns, data[:l])
		data = data[l:]
	}
	return patterns, data
}

func FuzzSigTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x03, 'a', 'b', 'c', 'x', 'a', 'b', 'c', 'y'})
	f.Add([]byte{0x02, 0x02, 'a', 'a', 0x03, 'a', 'a', 'b', 'z', 'a', 'a', 'b'})
	// Duplicate and overlapping patterns over a matching haystack.
	f.Add([]byte{0x03, 0x01, 'q', 0x01, 'q', 0x02, 'q', 'q', 'q', 'q', 'q'})
	// Pattern never in the haystack.
	f.Add([]byte{0x01, 0x04, 0xde, 0xad, 0xbe, 0xef, 'c', 'l', 'e', 'a', 'n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		patterns, hay := carvePatterns(data)
		tab, err := NewSigTable(mem.NewArena(0), patterns)
		if err != nil {
			// Limit rejections are fine; the compiler must just never
			// panic or mis-build.
			return
		}
		if len(patterns) == 0 {
			if got := tab.Match(hay); got != -1 {
				t.Fatalf("empty pattern set matched: %d", got)
			}
			return
		}
		got := tab.Match(hay)
		want := naiveMatch(patterns, hay)
		if got != want {
			t.Fatalf("Match = %d, naive reference = %d (patterns %q, hay %q)",
				got, want, patterns, hay)
		}
		// Every pattern must match its own bytes verbatim.
		for i, p := range patterns {
			if m := tab.Match(p); m < 0 || m > i {
				t.Fatalf("Match(pattern %d) = %d, want a match with index <= %d", i, m, i)
			}
		}
	})
}
