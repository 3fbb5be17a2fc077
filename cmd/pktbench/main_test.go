package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"pktpredict/internal/exp"
)

// TestTypeListCounts: NxTYPE repeats a type, and a count below 1 is an
// error naming the entry — "0xMON" used to yield an empty list (predict
// printed an empty table, fig4 ran every type) and "-2xMON,FW" FW alone.
func TestTypeListCounts(t *testing.T) {
	var l typeList
	if err := l.Set("2xMON, FW"); err != nil || fmt.Sprint(l) != "[MON MON FW]" {
		t.Fatalf("2xMON, FW parsed to %v, %v", l, err)
	}
	for _, bad := range []string{"0xMON", "-2xMON", "FW,-2xMON"} {
		entry := bad[strings.LastIndex(bad, ",")+1:]
		if err := l.Set(bad); err == nil || !strings.Contains(err.Error(), `"`+entry+`"`) {
			t.Errorf("Set(%q) = %v, want an error naming %q", bad, err, entry)
		}
	}
}

// stackTrace is what a panic leaves on stderr; no command line may end
// in one, however bad.
var stackTrace = regexp.MustCompile(`panic:|goroutine `)

// row is one command line and what pktbench must answer: the exit
// status, and a regular expression for each thing stdout and stderr
// must hold.
type row struct {
	name           string
	args           []string
	code           int
	stdout, stderr []string
}

// check runs the row, reports every way the answer differs, and returns
// what the command printed on stdout.
func (r row) check(t *testing.T) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(r.args, &stdout, &stderr)
	if code != r.code {
		t.Errorf("%v: exit %d, want %d", r.args, code, r.code)
	}
	for _, out := range []struct {
		name, text string
		want       []string
	}{{"stdout", stdout.String(), r.stdout}, {"stderr", stderr.String(), r.stderr}} {
		for _, re := range out.want {
			if !regexp.MustCompile(re).MatchString(out.text) {
				t.Errorf("%v: %s lacks %q", r.args, out.name, re)
			}
		}
	}
	if stackTrace.MatchString(stderr.String()) {
		t.Errorf("%v: Go stack trace on stderr", r.args)
	}
	if t.Failed() {
		t.Logf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestCommandLine is pktbench's command-line contract, row by row.
func TestCommandLine(t *testing.T) {
	notDefined := []string{"flag provided but not defined"}
	for _, r := range []row{
		// profile is the predictor's memoised solo run: Table 1's row,
		// then the per-function breakdown.
		{name: "profile", args: []string{"profile", "-flow", "MON", "-scale", "quick"},
			stdout: []string{`(?m)^flow +cpi +l3_refs_per_sec `, `(?m)^per-function breakdown$`, `(?m)^function +cycles +l3_refs `}},
		// profile lost -seed and -window, predict lost -validate (it
		// always co-runs) and the figures lost -targets.
		{name: "retired profile -window", args: []string{"profile", "-window", "0.01"}, code: 2, stderr: notDefined},
		{name: "retired predict -validate", args: []string{"predict", "-validate"}, code: 2, stderr: notDefined},
		{name: "retired -targets", args: []string{"-targets", "MON"}, code: 2, stderr: notDefined},
		// A positional argument used to end flag parsing silently, and
		// this line profiled MON at full scale.
		{name: "stray argument", args: []string{"profile", "-flow", "MON", "extra"}, code: 2,
			stderr: []string{`pktbench profile: unexpected argument "extra"`}},
		{name: "help", args: []string{"-h"}, stderr: []string{`Usage of pktbench:`, `-exp`}},
		{name: "subcommand help", args: []string{"sched", "-h"}, stderr: []string{`Usage of pktbench sched:`, `-flows`}},
	} {
		t.Run(r.name, func(t *testing.T) { r.check(t) })
	}
}

// TestEmptyListsRejected: an empty or ill-sized flow-type list, and an
// unknown experiment, are errors from the command, before any simulation.
func TestEmptyListsRejected(t *testing.T) {
	for _, r := range []row{
		{args: []string{"predict", "-mix", ""}, stderr: []string{`\Apktbench predict: -mix names no flow type\n\z`}},
		{args: []string{"sched", "-flows", " , "}, stderr: []string{`\Apktbench sched: .*0 flows, want 12`}},
		{args: []string{"sched", "-flows", "3xMON,3xFW"}, stderr: []string{`\Apktbench sched: .*6 flows, want 12`}}, // the quick platform has 2x6 cores
		{args: []string{"-exp", "fig3"}, stderr: []string{`\Apktbench: unknown experiment "fig3"`}},
	} {
		r.args, r.code = append(r.args, "-scale", "quick"), 1
		r.check(t)
	}
}

// TestPredictPrintsFigure9: predict prints Figure 9 for its mix, column
// for column; it used to print predicted before measured, the figure
// measured before predicted.
func TestPredictPrintsFigure9(t *testing.T) {
	got := row{args: []string{"predict", "-mix", "2xMON,2xVPN,FW,RE", "-scale", "quick"}}.check(t)
	want, err := exp.RunFig9(exp.Quick().NewPredictor(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Table().String() {
		t.Fatalf("predict printed\n%s\nFigure 9 is\n%s", got, want.Table())
	}
}

// TestSchedPrintsFigure10b: sched prints the per-flow drops of Figure
// 10(b) for its combination under the best and the worst placement, and
// a gain only for the kind of combination it evaluated. It printed
// neither per-flow line, because they were keyed on the label "6MON+6FW"
// and sched's combination is labelled "6 MON, 6 FW", and it printed a
// synthetic gain of 0.0% for combinations it never ran.
func TestSchedPrintsFigure10b(t *testing.T) {
	got := row{args: []string{"sched", "-flows", "6xMON,6xFW", "-scale", "quick"}}.check(t)
	for _, place := range []string{"best", "worst"} {
		prefix := "Figure 10(b) 6 MON, 6 FW, " + place + " placement: "
		var line string
		for _, l := range strings.Split(got, "\n") {
			if strings.HasPrefix(l, prefix) {
				line = l
			}
		}
		if n := strings.Count(line, "socket"); n != 12 {
			t.Errorf("%s: %d per-flow drops, want 12:\n%s", place, n, got)
		}
	}
	if !regexp.MustCompile(`(?m)^max gain: realistic [0-9.]*%$`).MatchString(got) || strings.Contains(got, "synthetic") {
		t.Errorf("want a realistic gain and no synthetic one:\n%s", got)
	}
	if !strings.Contains(got, "\ngreedy heuristic: ") {
		t.Errorf("no greedy line:\n%s", got)
	}
}

// TestEveryFigureHasAGolden: the internal/exp CSV goldens are the one
// check on the figures' numbers, so every -exp name must have a
// non-empty quick-scale golden — a new figure cannot ship unchecked —
// and -exp NAME -csv must print the golden under pktbench's one header
// line, so that -exp all's CSV is the goldens, concatenated in
// figureTable order, each under its "# NAME (quick scale)" line.
func TestEveryFigureHasAGolden(t *testing.T) {
	golden := func(name string) string {
		b, err := os.ReadFile("../../internal/exp/testdata/" + name + "_quick.csv")
		if err != nil || len(b) == 0 {
			t.Errorf("-exp %s has no quick-scale golden: %d bytes, %v", name, len(b), err)
		}
		return string(b)
	}
	for _, f := range figureTable {
		golden(f.name)
	}
	want := "# table1 (quick scale)\n" + golden("table1")
	if got := (row{args: []string{"-exp", "table1", "-scale", "quick", "-csv"}}).check(t); got != want {
		t.Fatalf("-exp table1 -scale quick -csv printed\n%s\nwant\n%s", got, want)
	}
}
