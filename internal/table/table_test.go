package table

import (
	"encoding/csv"
	"fmt"
	"strings"
	"testing"
)

func sample() *Table {
	t := New("T", "name", "n", "share").Format(func(f float64) string { return fmt.Sprintf("~%.6g", f*100) }, "share")
	t.Add("a", 1, 0.5)
	t.Add("b, c", uint32(20), 1.0/3)
	return t
}

// TestCSV: the header row, floats as %.6g whatever the text formatter,
// everything else as %v, a field with a comma quoted; no title or notes.
func TestCSV(t *testing.T) {
	tb := sample()
	tb.Note("not data")
	want := "name,n,share\na,1,0.5\n\"b, c\",20,0.333333\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
	recs, err := csv.NewReader(strings.NewReader(tb.CSV())).ReadAll()
	if err != nil || len(recs) != 3 || len(recs[2]) != 3 {
		t.Fatalf("CSV reads back as %q, %v", recs, err)
	}
}

// TestText: the title, columns aligned under their names, formatters
// applied, then the notes; no trailing blanks.
func TestText(t *testing.T) {
	tb := sample()
	tb.Note("max %d", 3)
	want := "T\n" +
		"name  n   share\n" +
		"a     1   ~50\n" +
		"b, c  20  ~33.3333\n" +
		"max 3\n"
	if got := tb.String(); got != want {
		t.Fatalf("text =\n%s\nwant\n%s", got, want)
	}
}

// TestMarkdown: every cell and header escaped into one cell, the title
// and notes only when set.
func TestMarkdown(t *testing.T) {
	tb := New("", "a|b", "c")
	tb.Add("x|y\nz", 1.5)
	want := "| a\\|b | c |\n|---|---|\n| x\\|y z | 1.5 |\n"
	if got := tb.Markdown(); got != want {
		t.Fatalf("markdown = %q, want %q", got, want)
	}
	tb = sample()
	tb.Note("n")
	want = "# T\n\n| name | n | share |\n|---|---|---|\n| a | 1 | ~50 |\n| b, c | 20 | ~33.3333 |\n\n- n\n"
	if got := tb.Markdown(); got != want {
		t.Fatalf("markdown = %q, want %q", got, want)
	}
}

// TestMisuse: a row of the wrong width and a formatter for a column the
// table lacks are programming errors.
func TestMisuse(t *testing.T) {
	for name, f := range map[string]func(){
		"short row":      func() { New("T", "a", "b").Add(1) },
		"long row":       func() { New("T", "a").Add(1, 2) },
		"unknown column": func() { New("T", "a").Format(func(float64) string { return "" }, "b") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
