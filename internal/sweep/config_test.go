package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pktpredict/internal/hw"
)

func TestParseConfigFull(t *testing.T) {
	c, err := ParseConfig(`
// comment
sweep :: Sweep(NAME g, DURATION 0.004, WARMUP 0.0002, QUANTUM 50000,
               CONTROL_EVERY 3, PARALLEL 2, TOLERANCE 0.1, LOADS 0.5 1.0);

base  :: Platform();
small :: Platform(L3_BYTES 524288);

a :: Run(FILE x.click);
b :: Run(FILE y.click, TOLERANCE 0.2);
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "g" || c.Duration != 0.004 || c.Warmup != 0.0002 ||
		c.Quantum != 50000 || c.ControlEvery != 3 || c.Parallel != 2 || c.Tolerance != 0.1 {
		t.Fatalf("sweep knobs misparsed: %+v", c)
	}
	if len(c.Loads) != 2 || c.Loads[0] != 0.5 || c.Loads[1] != 1.0 {
		t.Fatalf("loads misparsed: %v", c.Loads)
	}
	if len(c.Platforms) != 2 || c.Platforms[0].Name != "base" || c.Platforms[0].Platform == nil {
		t.Fatalf("platforms misparsed: %+v", c.Platforms)
	}
	if small, err := c.Platforms[1].Platform.Apply(hw.DefaultConfig()); err != nil || small.L3.SizeBytes != 524288 {
		t.Fatalf("variant override misparsed: %+v (%v)", small, err)
	}
	if len(c.Runs) != 2 || c.Runs[0] != (RunSpec{Name: "a", File: "x.click"}) ||
		c.Runs[1] != (RunSpec{Name: "b", File: "y.click", Tolerance: 0.2}) {
		t.Fatalf("runs misparsed: %+v", c.Runs)
	}
	if c.Points() != 2*2*2 {
		t.Fatalf("grid size %d, want 8", c.Points())
	}
}

func TestParseConfigDefaults(t *testing.T) {
	c, err := ParseConfig("sweep :: Sweep(NAME d);\nr :: Run(FILE f.click);\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Platforms) != 1 || c.Platforms[0].Name != "base" || c.Platforms[0].Platform != nil {
		t.Fatalf("implicit base platform missing: %+v", c.Platforms)
	}
	if len(c.Loads) != 1 || c.Loads[0] != 1 {
		t.Fatalf("implicit load point missing: %v", c.Loads)
	}
	if c.Duration != 0.006 || c.Warmup != 0.0003 || c.Quantum != 100_000 ||
		c.ControlEvery != 4 || c.Tolerance != 0.15 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct{ text, want string }{
		{"r :: Run(FILE f.click);", "missing sweep"},
		{"sweep :: Sweep(NAME d);", "declares no runs"},
		{"sweep :: Sweep(NAME d);\nr :: Run();", "needs FILE"},
		{"sweep :: Sweep(NAME d, LOADS 0 1);\nr :: Run(FILE f);", "LOADS 0 1 element 0 outside (0,4]"},
		{"sweep :: Sweep(NAME d, TOLERANCE 1.5);\nr :: Run(FILE f);", "TOLERANCE"},
		{"sweep :: Sweep(NAME d, QUANTUM 10);\nr :: Run(FILE f);", "QUANTUM"},
		{"sweep :: Sweep(NAME d, CONTROL_EVERY -1);\nr :: Run(FILE f);", "CONTROL_EVERY"},
		{"sweep :: Sweep(NAME d);\np :: Platform(WIDGETS 1);\nr :: Run(FILE f);", "unknown key WIDGETS"},
		{"sweep :: Sweep(NAME d);\nsweep2 :: Sweep(NAME e);\nr :: Run(FILE f);", "second Sweep"},
		{"sweep :: Sweep(NAME d);\nx :: Run(FILE f);\nx :: Run(FILE g);", "declared twice"},
		{"sweep :: Sweep(NAME d);\nx :: Widget(1);", "unknown declaration class"},
		{"nonsense", "cannot parse"},
		// Undeclared arguments are rejected with the statement, its line
		// and the known keys — a misspelled TOLERANCE used to gate
		// silently at the default 0.15.
		{"sweep :: Sweep(TOLERENCE 0.05);\nr :: Run(FILE f);",
			"statement 1 (line 1): sweep: unknown key TOLERENCE (known keys: NAME DURATION WARMUP QUANTUM CONTROL_EVERY PARALLEL TOLERANCE LOADS)"},
		{"sweep :: Sweep(NAME d, 0.05);\nr :: Run(FILE f);", `sweep: positional argument "0.05" (known keys: NAME`},
		{"sweep :: Sweep(NAME d);\n\nr :: Run(FILE f, TOLERENCE 0.2);", `statement 2 (line 3): run "r": unknown key TOLERENCE (known keys: FILE TOLERANCE)`},
		{"sweep :: Sweep(NAME d);\nr :: Run(f.click);", `statement 2 (line 2): run "r": positional argument "f.click"`},
		{"sweep :: Sweep(NAME d);\nr :: Run(FILE f, TOLERANCE 1);", "TOLERANCE 1 outside [0,1)"},
		{"sweep :: Sweep(NAME d, DURATION 0);\nr :: Run(FILE f);", "DURATION 0 outside (0,)"},
	}
	for _, c := range cases {
		if _, err := ParseConfig(c.text); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseConfig(%q): error %v, want containing %q", c.text, err, c.want)
		}
	}
	// Statement errors carry line numbers, like scenario.Parse.
	_, err := ParseConfig("sweep :: Sweep(NAME d);\n\nbogus statement;\n")
	if err == nil || !strings.Contains(err.Error(), "(line 3)") {
		t.Errorf("sweep parse error lacks line number: %v", err)
	}
}

func TestLoadConfigResolvesPaths(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.sweep")
	text := "sweep :: Sweep(DURATION 0.004);\nm :: Run(FILE ../scenarios/mixed.click);\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "grid" {
		t.Fatalf("name not defaulted from filename: %q", c.Name)
	}
	want := filepath.Join(dir, "../scenarios/mixed.click")
	if c.Runs[0].File != want {
		t.Fatalf("FILE not resolved against the sweep file's directory: %q, want %q", c.Runs[0].File, want)
	}
}

// TestShippedSweepsParse: every shipped .sweep file parses, resolves its
// scenario files to paths that exist, and declares the grid its comment
// promises.
func TestShippedSweepsParse(t *testing.T) {
	dir := "../../examples/sweeps"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".sweep") {
			continue
		}
		n++
		c, err := LoadConfig(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for _, r := range c.Runs {
			if _, err := os.Stat(r.File); err != nil {
				t.Errorf("%s: run %s references missing scenario %s", e.Name(), r.Name, r.File)
			}
		}
	}
	if n < 2 {
		t.Fatalf("only %d shipped sweep files found, want ≥2", n)
	}

	paper, err := LoadConfig(filepath.Join(dir, "paper_mixes.sweep"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paper.Platforms) < 2 || len(paper.Loads) < 3 || len(paper.Runs) < 4 {
		t.Fatalf("paper_mixes grid too small: %d platforms × %d loads × %d runs",
			len(paper.Platforms), len(paper.Loads), len(paper.Runs))
	}
}
