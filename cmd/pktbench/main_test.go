package main

import (
	"flag"
	"fmt"
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

func TestEmptyListsRejected(t *testing.T) {
	for name, args := range map[string][]string{"predict": {"-mix", ""}, "sched": {"-flows", " , "}} {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		run := commands[name](fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := run(exp.Quick()); err == nil {
			t.Errorf("%s ran an empty flow-type list", name)
		}
	}
}
