// The element key tables, checked as a loop over their rows.
package pktpredict_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	_ "pktpredict/internal/apps" // registers every element class
	"pktpredict/internal/click"
	"pktpredict/internal/mem"
)

// construct builds one instance of class from a single argument item,
// turning a panic into an error.
func construct(class string, items ...string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PANIC: %v", r)
		}
	}()
	_, err = click.NewInstance(&click.Env{Arena: mem.NewArena(0), Seed: 1}, class, click.ParseArgs(items))
	return err
}

// TestElementRowsHoldTheirIntervals: for every registered class, the
// defaults construct, and for every numeric row so does the value at each
// interval's closed lower edge, while the nearest value outside each end
// is an error naming the class and the key — no element argument reaches
// a constructor that panics on it or quietly runs without it.
func TestElementRowsHoldTheirIntervals(t *testing.T) {
	tables := click.KeyTables()
	if len(tables) < 21 {
		t.Fatalf("%d classes registered, want the 21 shipped ones", len(tables))
	}
	for class, rows := range tables {
		if err := construct(class); err != nil && !strings.Contains(err.Error(), "needs at least one pattern") {
			t.Errorf("%s with no arguments: %v", class, err)
		}
		for _, row := range rows {
			if row.Bounds == "" {
				if row.Kind == "int" {
					t.Errorf("%s: Int row %s has no interval", class, row.Name)
				}
				continue
			}
			// item writes v as the row's argument; step is the nearest
			// other value of the row's kind in a direction.
			item := func(v float64) string {
				text := strconv.FormatFloat(v, 'f', -1, 64)
				if row.Positional {
					return text
				}
				return row.Name + " " + text
			}
			step := func(v, toward float64) float64 {
				if row.Kind == "float64" {
					return math.Nextafter(v, toward)
				}
				return v + math.Copysign(1, toward)
			}
			for _, iv := range strings.Split(row.Bounds, "|") {
				lo, hi, _ := strings.Cut(iv[1:len(iv)-1], ",")
				if edge, err := strconv.ParseFloat(lo, 64); err == nil && iv[0] == '[' {
					if err := construct(class, item(edge)); err != nil {
						t.Errorf("%s(%s), the lower edge of %s: %v", class, item(edge), iv, err)
					}
				}
				for _, end := range []struct {
					text   string
					closed bool
					away   float64
				}{{lo, iv[0] == '[', math.Inf(-1)}, {hi, iv[len(iv)-1] == ']', math.Inf(1)}} {
					outside, err := strconv.ParseFloat(end.text, 64)
					if err != nil {
						continue // an unbounded end
					}
					if end.closed {
						outside = step(outside, end.away)
					}
					err = construct(class, item(outside))
					if err == nil || !strings.Contains(err.Error(), class+": "+row.Name+" ") || !strings.Contains(err.Error(), " outside "+row.Bounds) {
						t.Errorf("%s(%s) lies outside %s: error %v does not name class, key and interval", class, item(outside), row.Bounds, err)
					}
				}
			}
		}
	}
}
