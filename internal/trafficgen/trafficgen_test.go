package trafficgen

import (
	"bytes"
	"testing"

	"pktpredict/internal/netpkt"
	"pktpredict/internal/rng"
)

func TestGeneratedPacketsAreValidIPv4(t *testing.T) {
	g := New(Spec{Seed: 1, Size: 64})
	b := make([]byte, 64)
	for i := 0; i < 100; i++ {
		n := g.Next(b)
		if n != 64 {
			t.Fatalf("packet %d: length %d, want 64", i, n)
		}
		h, err := netpkt.ParseIPv4(b[:n])
		if err != nil {
			t.Fatalf("packet %d invalid: %v", i, err)
		}
		if h.TTL != 64 {
			t.Fatalf("TTL = %d, want 64", h.TTL)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(Spec{Seed: 9, Size: 128}), New(Spec{Seed: 9, Size: 128})
	pa, pb := make([]byte, 128), make([]byte, 128)
	for i := 0; i < 50; i++ {
		a.Next(pa)
		b.Next(pb)
		if !bytes.Equal(pa, pb) {
			t.Fatalf("streams diverged at packet %d", i)
		}
	}
}

func TestRandomTuplesMostlyUnique(t *testing.T) {
	g := New(Spec{Seed: 2})
	b := make([]byte, 64)
	seen := make(map[netpkt.FiveTuple]bool)
	const n = 1000
	for i := 0; i < n; i++ {
		g.Next(b)
		ft, err := netpkt.ExtractFiveTuple(b)
		if err != nil {
			t.Fatal(err)
		}
		seen[ft] = true
	}
	if len(seen) < n-2 {
		t.Fatalf("only %d distinct tuples in %d random packets", len(seen), n)
	}
}

func TestFlowSetBoundsTuples(t *testing.T) {
	g := New(Spec{Seed: 3, Flows: 10})
	b := make([]byte, 64)
	seen := make(map[netpkt.FiveTuple]bool)
	for i := 0; i < 500; i++ {
		g.Next(b)
		ft, _ := netpkt.ExtractFiveTuple(b)
		seen[ft] = true
	}
	if len(seen) > 10 {
		t.Fatalf("%d distinct tuples from a 10-flow generator", len(seen))
	}
	if len(seen) < 8 {
		t.Fatalf("only %d of 10 flows seen in 500 packets", len(seen))
	}
}

func TestUniquePayloadsWithoutRedundancy(t *testing.T) {
	g := New(Spec{Seed: 6, Size: 256})
	b := make([]byte, 256)
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		g.Next(b)
		if seen[string(b[28:])] {
			t.Fatal("duplicate payload from the generator")
		}
		seen[string(b[28:])] = true
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Size: 32}, // too small
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %d should be invalid: %+v", i, s)
		}
	}
	if err := (Spec{Seed: 1}).Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

func TestNewPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Spec{Size: 10})
}

func TestNextPanicsOnSmallBuffer(t *testing.T) {
	g := New(Spec{Seed: 1, Size: 128})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Next(make([]byte, 64))
}

// TestFlowsMatchSequentialTable: flow i, recomputed by a jump, is the
// i-th tuple of the table New used to store — every tuple of one drawn
// sequentially from Seed ^ 0xf10e5.
func TestFlowsMatchSequentialTable(t *testing.T) {
	for _, flows := range []int{1, 4096, 100000} {
		g := New(Spec{Seed: 5, Flows: flows}).(*gen)
		seq := rng.New(5 ^ 0xf10e5)
		for i := 0; i < flows; i++ {
			if got, want := g.flow(i), randomTuple(seq); got != want {
				t.Fatalf("Flows %d: flow %d = %+v, sequential table %+v", flows, i, got, want)
			}
		}
	}
}
