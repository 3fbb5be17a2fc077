package sweep

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSweep feeds arbitrary text to the .sweep parser, seeded with
// the shipped sweeps. Sweep files are user input: the parser must reject
// or accept without panicking, and a config it accepts has at least one
// point for cmd/sweep to run.
func FuzzParseSweep(f *testing.F) {
	files, err := filepath.Glob("../../examples/sweeps/*.sweep")
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped sweeps to seed from (%v)", err)
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	for _, s := range []string{
		"sweep :: Sweep();\nr :: Run(FILE a.click);",
		"sweep :: Sweep(LOADS);\nbase :: Platform(SOCKETS 0);\nr :: Run(FILE a.click);",
		"sweep :: Sweep(LOADS -1 NaN 1e400, TOLERANCE 2);\nr :: Run(FILE a.click, TOLERANCE -1);",
		"sweep :: Sweep(NAME x);\nsweep2 :: Sweep(NAME y);\nr :: Run();",
		"r :: Run(FILE a.click);\nr :: Platform();",
		"sweep :: Sweep(PARALLEL 0, QUANTUM -5, DURATION 0);\n/* unterminated",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseConfig(text)
		if err != nil {
			return
		}
		if c.Points() < 1 {
			t.Fatalf("accepted config has %d points (%d platforms × %d loads × %d runs)\n--- input ---\n%s",
				c.Points(), len(c.Platforms), len(c.Loads), len(c.Runs), text)
		}
	})
}
