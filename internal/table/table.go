// Package table is the one shape a result takes on its way out: a title,
// columns, typed rows and notes, rendered as aligned text, CSV or markdown.
package table

import (
	"encoding/csv"
	"fmt"
	"slices"
	"strings"
	"text/tabwriter"
)

// Table is rows under fixed columns; notes state what rows alone do not.
type Table struct {
	title  string
	names  []string
	format []func(float64) string
	rows   [][]any
	notes  []string
}

// New returns an empty table; the column names are its CSV header.
func New(title string, columns ...string) *Table {
	return &Table{title: title, names: columns, format: make([]func(float64) string, len(columns))}
}

// Format prints the named columns' float64 cells as f in text and markdown.
func (t *Table) Format(f func(float64) string, columns ...string) *Table {
	for _, c := range columns {
		t.format[slices.Index(t.names, c)] = f
	}
	return t
}

// Add appends a row; a row of the wrong width is a bug, and panics.
func (t *Table) Add(cells ...any) {
	if len(cells) != len(t.names) {
		panic(fmt.Sprintf("table %q: %d cells under %d columns", t.title, len(cells), len(t.names)))
	}
	t.rows = append(t.rows, cells)
}

// Note appends one line to the notes.
func (t *Table) Note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// String renders the text form: the title, aligned columns, the notes.
func (t *Table) String() string {
	lines := []string{t.title, strings.Join(t.names, "\t")}
	for _, r := range t.rows {
		lines = append(lines, strings.Join(t.cells(r, true), "\t"))
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(append(lines, t.notes...), "\n"))
	w.Flush()
	return b.String()
}

// CSV renders the header and the rows; the title and notes are not data.
func (t *Table) CSV() string {
	recs := [][]string{t.names}
	for _, r := range t.rows {
		recs = append(recs, t.cells(r, false))
	}
	var b strings.Builder
	csv.NewWriter(&b).WriteAll(recs) // a strings.Builder does not fail
	return b.String()
}

// Markdown renders the text form's cells; title and notes only when set.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "# %s\n\n", t.title)
	}
	row := func(cells []string) {
		for _, c := range cells {
			b.WriteString("| " + mdEscape.Replace(c) + " ")
		}
		b.WriteString("|\n")
	}
	row(t.names)
	b.WriteString("|" + strings.Repeat("---|", len(t.names)) + "\n")
	for _, r := range t.rows {
		row(t.cells(r, true))
	}
	if len(t.notes) > 0 {
		b.WriteString("\n- " + strings.Join(t.notes, "\n- ") + "\n")
	}
	return b.String()
}

// mdEscape keeps any text, user input included, in one markdown cell.
var mdEscape = strings.NewReplacer("|", `\|`, "\n", " ", "\r", " ")

// cells prints a row: formatted, or floats as %.6g and the rest as %v.
func (t *Table) cells(r []any, formatted bool) []string {
	out := make([]string, len(r))
	for i, v := range r {
		out[i] = fmt.Sprint(v)
		if f := t.format[i]; formatted && f != nil {
			out[i] = f(v.(float64))
		} else if x, ok := v.(float64); ok {
			out[i] = fmt.Sprintf("%.6g", x)
		}
	}
	return out
}
