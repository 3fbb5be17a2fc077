package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// stackTrace is what a panic leaves on stderr; no command line may end
// in one, however bad.
var stackTrace = regexp.MustCompile(`panic:|goroutine `)

// row is one command line and what sweep must answer: the exit status,
// and a regular expression for each thing stderr must hold.
type row struct {
	name   string
	args   []string
	code   int
	stderr []string
}

// check runs the row and reports every way the answer differs.
func (r row) check(t *testing.T) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(r.args, &stdout, &stderr)
	if code != r.code {
		t.Errorf("%v: exit %d, want %d", r.args, code, r.code)
	}
	for _, re := range r.stderr {
		if !regexp.MustCompile(re).MatchString(stderr.String()) {
			t.Errorf("%v: stderr lacks %q", r.args, re)
		}
	}
	if stackTrace.MatchString(stderr.String()) {
		t.Errorf("%v: Go stack trace on stderr", r.args)
	}
	if t.Failed() {
		t.Logf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}

// tinySweep writes a one-point grid over a one-flow scenario, a sweep
// that runs in well under a second, and returns its path.
func tinySweep(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	scen := filepath.Join(dir, "tiny.click")
	grid := filepath.Join(dir, "tiny.sweep")
	if err := os.WriteFile(scen, []byte("s :: Scenario(NAME tiny);\nip :: Flow(TYPE IP, WORKERS 1);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	text := fmt.Sprintf("sweep :: Sweep(NAME tiny, DURATION 0.002, WARMUP 0.0003);\nbase :: Platform();\ntiny :: Run(FILE %s);\n", scen)
	if err := os.WriteFile(grid, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return grid
}

// TestCommandLine is sweep's command-line contract, row by row.
func TestCommandLine(t *testing.T) {
	const smoke = "../../examples/sweeps/smoke.sweep"
	for _, r := range []row{
		// A -trend-md without -trend is refused before any grid point runs.
		{name: "trend-md without trend", args: []string{"-config", smoke, "-trend-md", "x.md"}, code: 1,
			stderr: []string{`-trend-md requires -trend`}},
		// -parallel is retired; the .sweep file's PARALLEL key stays.
		{name: "retired -parallel", args: []string{"-parallel", "2"}, code: 2,
			stderr: []string{"flag provided but not defined"}},
		// A positional argument used to end flag parsing silently: this
		// line ran the whole grid, exited 0 and never wrote x.
		{name: "stray argument", args: []string{"-config", smoke, "-q", "stray", "-trend-md", "x"}, code: 2,
			stderr: []string{`sweep: unexpected argument "stray"`}},
		// The library names its layer, "sweep" too; the command prints
		// it once, not "sweep: sweep: open" or "sweep: trend: trend: open".
		{name: "missing config", args: []string{"-config", "/nonexistent.sweep"}, code: 1,
			stderr: []string{`\Asweep: open /nonexistent\.sweep: `}},
		{name: "unwritable trend", args: []string{"-q", "-config", tinySweep(t), "-trend", filepath.Join(t.TempDir(), "missing", "trend.json")}, code: 1,
			stderr: []string{`(?m)^sweep: trend: open .*trend\.json\.tmp-`}},
		{name: "help", args: []string{"-h"}, stderr: []string{`Usage of sweep:`, `-profile-cache`}},
	} {
		t.Run(r.name, r.check)
	}
}
