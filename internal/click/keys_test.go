package click

import (
	"strings"
	"testing"
)

// probe is a declaration with one field of every kind Decode reads.
type probe struct {
	n     int
	seed  uint64
	rate  float64
	on    bool
	name  string
	loads []float64
	bare  string
}

var probeKeys = []Key[probe]{
	Int("ROUTES", "[1,64]", func(p *probe) *int { return &p.n }),
	Uint("SEED", "", func(p *probe) *uint64 { return &p.seed }),
	Float("RATE", "(0,1]", func(p *probe) *float64 { return &p.rate }),
	Bool("VERBOSE", func(p *probe) *bool { return &p.on }),
	String("NAME", func(p *probe) *string { return &p.name }),
	Floats("LOADS", "[0,)", func(p *probe) *[]float64 { return &p.loads }),
	Int("SIZE", "[0,0]|[64,128]", func(p *probe) *int { return &p.n }),
}

func decodeProbe(keys []Key[probe], items ...string) (probe, error) {
	p := probe{n: 42, rate: 0.5}
	return p, Decode("Probe", keys, ParseArgs(items), &p)
}

// TestDecode holds the table decoder to what the Args accessors it
// replaced did — keys match case-insensitively, an absent key leaves the
// default, a value of the wrong kind is refused — and to what they could
// not do: refuse what the table does not declare.
func TestDecode(t *testing.T) {
	p, err := decodeProbe(probeKeys, "routes 7", " SEED 9 ", "Rate 1", "VERBOSE true", "NAME a b", "LOADS 0 0.5 2")
	if err != nil {
		t.Fatal(err)
	}
	if p.n != 7 || p.seed != 9 || p.rate != 1 || !p.on || p.name != "a b" || len(p.loads) != 3 || p.loads[2] != 2 {
		t.Fatalf("decoded %+v", p)
	}
	if p, err = decodeProbe(probeKeys); err != nil || p.n != 42 || p.rate != 0.5 {
		t.Fatalf("absent keys must leave the defaults: %+v, %v", p, err)
	}
	for _, tc := range []struct{ item, want string }{
		{"ROUTES x", "Probe: ROUTES x is not an integer"},
		{"ROUTES 1.5", "Probe: ROUTES 1.5 is not an integer"},
		{"ROUTES 0", "Probe: ROUTES 0 outside [1,64]"},
		{"ROUTES 65", "Probe: ROUTES 65 outside [1,64]"},
		{"SEED -1", "Probe: SEED -1 is not a uint64"},
		{"RATE NaN", "Probe: RATE NaN is not a finite number"},
		{"RATE +Inf", "Probe: RATE +Inf is not a finite number"},
		{"RATE 0", "Probe: RATE 0 outside (0,1]"},
		{"VERBOSE maybe", "Probe: VERBOSE maybe is not a bool"},
		{"LOADS 1 -1", "Probe: LOADS 1 -1 element -1 outside [0,)"},
		{"SIZE 63", "Probe: SIZE 63 outside [0,0]|[64,128]"},
		{"SIZE 129", "Probe: SIZE 129 outside [0,0]|[64,128]"},
		{"ROUTE 7", "Probe: unknown key ROUTE (known keys: ROUTES SEED RATE VERBOSE NAME LOADS SIZE)"},
		{"7", `Probe: positional argument "7" (known keys: ROUTES SEED`},
	} {
		if _, err := decodeProbe(probeKeys, tc.item); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want containing %q", tc.item, err, tc.want)
		}
	}
	for _, item := range []string{"SIZE 0", "SIZE 64", "SIZE 128", "ROUTES 1", "ROUTES 64"} {
		if _, err := decodeProbe(probeKeys, item); err != nil {
			t.Errorf("%q is inside its interval: %v", item, err)
		}
	}
}

// TestDecodePositionalAndEmptyTables: bare arguments go to the table's
// Positional row and nowhere else, and a class without rows says it
// takes no arguments instead of listing none.
func TestDecodePositionalAndEmptyTables(t *testing.T) {
	keys := []Key[probe]{
		Positional(String("PATTERN", func(p *probe) *string { return &p.bare })),
		Int("ROUTES", "[1,64]", func(p *probe) *int { return &p.n }),
	}
	p, err := decodeProbe(keys, "tcp", "udp", "ROUTES 3", "-")
	if err != nil || p.bare != "tcp udp -" || p.n != 3 {
		t.Fatalf("decoded %+v, %v", p, err)
	}
	if _, err := decodeProbe(keys, "PATTERN tcp"); err == nil ||
		!strings.Contains(err.Error(), "Probe: unknown key PATTERN (known keys: PATTERN (written bare) ROUTES)") {
		t.Errorf("a positional row is not a keyword: %v", err)
	}
	for _, item := range []string{"FOO 1", "1"} {
		err := Decode("Discard", nil, ParseArgs([]string{item}), &struct{}{})
		if err == nil || !strings.Contains(err.Error(), "(Discard takes no arguments)") || strings.Contains(err.Error(), "known keys") {
			t.Errorf("Discard(%s): %v", item, err)
		}
	}
}

// TestRegisterDecodesBeforeBuild: NewInstance hands the build function
// the class's defaults for the Env overlaid with the decoded arguments,
// and does not call it at all when decoding fails.
func TestRegisterDecodesBeforeBuild(t *testing.T) {
	builds := 0
	Register("TSeeded", []Key[probe]{
		Uint("SEED", "", func(p *probe) *uint64 { return &p.seed }),
		Int("ROUTES", "[1,64]", func(p *probe) *int { return &p.n }),
	}, func(env *Env) probe { return probe{seed: env.Seed, n: 5} }, func(_ *Env, p probe) (interface{}, error) {
		builds++
		return &testSource{remaining: int(p.seed)*100 + p.n}, nil
	})
	inst, err := NewInstance(&Env{Seed: 3}, "TSeeded", ParseArgs([]string{"ROUTES 9"}))
	if err != nil || inst.(*testSource).remaining != 309 {
		t.Fatalf("instance %+v, %v", inst, err)
	}
	if _, err := NewInstance(&Env{Seed: 3}, "TSeeded", ParseArgs([]string{"ROUTES 0"})); err == nil || builds != 1 {
		t.Fatalf("ROUTES 0 must fail before the build function runs: err %v, %d builds", err, builds)
	}
	rows := KeyTables()["TSeeded"]
	if len(rows) != 2 || rows[1] != (Row{Name: "ROUTES", Kind: "int", Bounds: "[1,64]"}) || rows[0].Kind != "uint64" {
		t.Fatalf("KeyTables rows = %+v", rows)
	}
	if rows, ok := KeyTables()["TElem"]; !ok || len(rows) != 0 {
		t.Fatalf("a class without arguments has an empty table, got %v %v", rows, ok)
	}
}
