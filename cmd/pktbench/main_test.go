package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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

// TestEmptyListsRejected: an empty or ill-sized flow-type list, and an
// unknown experiment, are errors from the command, before any simulation.
func TestEmptyListsRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"predict", []string{"-mix", ""}},
		{"sched", []string{"-flows", " , "}},
		{"sched", []string{"-flows", "3xMON,3xFW"}}, // the quick platform has 2x6 cores
		{"", []string{"-exp", "fig3"}},
	} {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		run := commands[c.name](fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if err := run(exp.Quick()); err == nil {
			t.Errorf("%q %v ran", c.name, c.args)
		}
	}
}

// stdoutOf runs a subcommand on the quick scale and returns what it
// printed.
func stdoutOf(t *testing.T, name string, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	run := commands[name](fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	err = run(exp.Quick())
	w.Close()
	got := string(<-out)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestPredictPrintsFigure9: predict prints Figure 9 for its mix, column
// for column; it used to print predicted before measured, the figure
// measured before predicted.
func TestPredictPrintsFigure9(t *testing.T) {
	got := stdoutOf(t, "predict", "-mix", "2xMON,2xVPN,FW,RE")
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
	got := stdoutOf(t, "sched", "-flows", "6xMON,6xFW")
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
	if !strings.Contains(got, "\nmax gain: realistic ") || strings.Contains(got, "synthetic") {
		t.Errorf("want a realistic gain and no synthetic one:\n%s", got)
	}
	if !strings.Contains(got, "\ngreedy heuristic: ") {
		t.Errorf("no greedy line:\n%s", got)
	}
}
