package dpi

import (
	"bytes"
	"testing"

	"pktpredict/internal/mem"
)

func TestSignaturesDeterministic(t *testing.T) {
	a := Signatures(42, 16)
	b := Signatures(42, 16)
	if len(a) != 16 {
		t.Fatalf("got %d signatures, want 16", len(a))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("signature %d differs across equal seeds", i)
		}
		if len(a[i]) < SigMinLen || len(a[i]) > SigMaxLen {
			t.Fatalf("signature %d length %d outside [%d,%d]", i, len(a[i]), SigMinLen, SigMaxLen)
		}
	}
	c := Signatures(43, 16)
	same := true
	for i := range a {
		if !bytes.Equal(a[i], c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical signature sets")
	}
}

func mustTable(t *testing.T, patterns ...string) *SigTable {
	t.Helper()
	bs := make([][]byte, len(patterns))
	for i, p := range patterns {
		bs[i] = []byte(p)
	}
	tab, err := NewSigTable(mem.NewArena(0), bs)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSigTableMatchesAtAnyOffset(t *testing.T) {
	tab := mustTable(t, "evilbytes")
	for _, hay := range []string{
		"evilbytes",
		"evilbytes trailing",
		"leading evilbytes",
		"mid evilbytes dle",
	} {
		if got := tab.Match([]byte(hay)); got != 0 {
			t.Fatalf("Match(%q) = %d, want 0", hay, got)
		}
	}
	for _, hay := range []string{"", "clean", "evilbyte", "vilbytes", "evil bytes"} {
		if got := tab.Match([]byte(hay)); got != -1 {
			t.Fatalf("Match(%q) = %d, want -1", hay, got)
		}
	}
}

func TestSigTableReturnsLowestPatternIndex(t *testing.T) {
	tab := mustTable(t, "bravo", "alpha", "charlie")
	cases := []struct {
		hay  string
		want int
	}{
		{"xx charlie xx", 2},
		{"xx alpha xx", 1},
		{"alpha then bravo", 0}, // lowest index, not first occurrence
		{"bravo then alpha", 0},
		{"charlie bravo", 0},
	}
	for _, c := range cases {
		if got := tab.Match([]byte(c.hay)); got != c.want {
			t.Fatalf("Match(%q) = %d, want %d", c.hay, got, c.want)
		}
	}
}

func TestSigTableOverlappingPatterns(t *testing.T) {
	// "cde" is a substring of pattern 0; the suffix chain must surface it.
	tab := mustTable(t, "abcdef", "cde")
	if got := tab.Match([]byte("xxcdexx")); got != 1 {
		t.Fatalf("Match(substring pattern) = %d, want 1", got)
	}
	if got := tab.Match([]byte("xxabcdefxx")); got != 0 {
		t.Fatalf("Match(both) = %d, want 0", got)
	}
	// Overlapping occurrences across a shared prefix.
	tab = mustTable(t, "aab", "aaa")
	if got := tab.Match([]byte("aaab")); got != 0 {
		t.Fatalf("Match(\"aaab\") = %d, want 0 (both match; lowest wins)", got)
	}
	if got := tab.Match([]byte("aaac")); got != 1 {
		t.Fatalf("Match(\"aaac\") = %d, want 1", got)
	}
}

func TestSigTableDuplicatePatternsKeepLowestID(t *testing.T) {
	tab := mustTable(t, "dup", "dup", "other")
	if got := tab.Match([]byte("xdupx")); got != 0 {
		t.Fatalf("Match(duplicate pattern) = %d, want 0", got)
	}
}

func TestSigTableRejectsBadSets(t *testing.T) {
	if _, err := NewSigTable(mem.NewArena(0), [][]byte{[]byte("ok"), {}}); err == nil {
		t.Fatal("empty pattern accepted")
	}
	many := make([][]byte, MaxPatterns+1)
	for i := range many {
		many[i] = []byte{byte(i), byte(i >> 8)}
	}
	if _, err := NewSigTable(mem.NewArena(0), many); err == nil {
		t.Fatal("over-limit pattern count accepted")
	}
	big := [][]byte{make([]byte, MaxPatternBytes+1)}
	for i := range big[0] {
		big[0][i] = 1
	}
	if _, err := NewSigTable(mem.NewArena(0), big); err == nil {
		t.Fatal("over-limit pattern bytes accepted")
	}
}

func TestSigTableRegionSizedToAutomaton(t *testing.T) {
	arena := mem.NewArena(0)
	tab, err := NewSigTable(arena, Signatures(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(tab.States()) * 256 * 4; tab.SimBytes() != want {
		t.Fatalf("SimBytes = %d, want %d (one 1KiB row per state)", tab.SimBytes(), want)
	}
	// Row addresses must stay inside the region for any byte value.
	lo, hi := tab.RowAddr(0), tab.RowAddr(0)
	for i := 0; i < 256; i++ {
		a := tab.RowAddr(i)
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if span := uint64(hi - lo); span >= tab.SimBytes() {
		t.Fatalf("row addresses span %d bytes, region only %d", span, tab.SimBytes())
	}
}
