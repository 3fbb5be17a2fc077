package exp

import (
	"strings"
	"testing"
)

// Every experiment result renders to CSV with a header row and uniform
// column counts — the contract downstream plotting scripts rely on.

func checkCSV(t *testing.T, name, csv string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: CSV has %d lines; want header + data", name, len(lines))
	}
	cols := strings.Count(lines[0], ",")
	if cols == 0 {
		t.Fatalf("%s: header has a single column: %q", name, lines[0])
	}
	for i, l := range lines[1:] {
		if strings.Count(l, ",") != cols {
			t.Fatalf("%s: row %d has %d separators, header has %d: %q",
				name, i+1, strings.Count(l, ","), cols, l)
		}
	}
}

func TestCSVStructures(t *testing.T) {
	p := quickSetup(t)

	t1, err := RunTable1(p)
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, "table1", t1.CSV())

	f2, err := RunFig2(p)
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, "fig2", f2.CSV())

	f5, err := RunFig5(p)
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, "fig5", f5.CSV())

	f6, err := RunFig6(p)
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, "fig6", f6.CSV())

	f7, err := RunFig7(p)
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, "fig7", f7.CSV())

	f8, err := RunFig8(p)
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, "fig8", f8.CSV())

	f9, err := RunFig9(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, "fig9", f9.CSV())
}

func TestCSVBuilderFormatting(t *testing.T) {
	var c csvBuilder
	c.row("a", 1, 0.5)
	c.row("b", 2, 1.25)
	want := "a,1,0.5\nb,2,1.25\n"
	if c.String() != want {
		t.Fatalf("csv = %q, want %q", c.String(), want)
	}
}

func TestPctAndMrefs(t *testing.T) {
	if pct(0.123) != "12.3%" {
		t.Fatalf("pct = %q", pct(0.123))
	}
	if mrefs(25_850_000) != "25.9M" {
		t.Fatalf("mrefs = %q", mrefs(25_850_000))
	}
}
