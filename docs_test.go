// Documentation conformance tests: every internal package must carry a
// godoc package comment stating what it models (the CI vet/test steps
// keep this enforced), the README must link the reference docs, and the
// grammar reference must list exactly the keys the parsers declare.
package pktpredict_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pktpredict/internal/apps"
	"pktpredict/internal/click"
	"pktpredict/internal/hw"
	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
	"pktpredict/internal/sweep"
)

// grammarTables returns every declaration class's keys, straight from
// the parsers' key tables: the scenario and sweep grammars' and, for what
// goes inside a graph block, every registered element class's.
func grammarTables() map[string][]string {
	tables := scenario.KeyTables()
	maps.Copy(tables, sweep.KeyTables())
	for class, rows := range click.KeyTables() {
		for _, row := range rows {
			tables[class] = append(tables[class], row.Name)
		}
	}
	return tables
}

// keyDeclaringDirs are the packages whose non-test source declares
// grammar keys: the two file grammars and the eight element providers.
var keyDeclaringDirs = []string{"internal/scenario", "internal/sweep",
	"internal/elements", "internal/nat", "internal/netflow", "internal/aes",
	"internal/iplookup", "internal/re", "internal/firewall", "internal/synth"}

// TestScenarioFormatDocListsEveryKey holds docs/scenario-format.md to the
// key tables in both directions: under each `Class(...)` heading, the
// keys in the first column of the table rows must be exactly the keys
// the parser declares for that class. An element row's interval is held
// to the document too: the row that lists the key quotes its Bounds, or
// says uint64 where any value of that kind is accepted.
func TestScenarioFormatDocListsEveryKey(t *testing.T) {
	const doc = "docs/scenario-format.md"
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile("^#+ `(\\w+)\\(\\.\\.\\.\\)`")
	key := regexp.MustCompile("`([A-Z0-9_]+)`")
	documented := map[string][]string{}
	rowOf := map[string]string{} // "Class KEY" → the table row listing it
	class := ""
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "#") {
			class = ""
			if m := heading.FindStringSubmatch(line); m != nil {
				class = m[1]
			}
			continue
		}
		if class == "" || !strings.HasPrefix(line, "| `") {
			continue
		}
		firstCell, _, _ := strings.Cut(line[2:], " | ")
		for _, m := range key.FindAllStringSubmatch(firstCell, -1) {
			documented[class] = append(documented[class], m[1])
			rowOf[class+" "+m[1]] = strings.ReplaceAll(line, `\|`, "|")
		}
	}
	for class, rows := range click.KeyTables() {
		for _, row := range rows {
			want := "`" + row.Bounds + "`"
			if row.Bounds == "" && row.Kind == "uint64" {
				want = "uint64" // any value of the kind: the row says which
			} else if row.Bounds == "" {
				continue
			}
			if line, ok := rowOf[class+" "+row.Name]; ok && !strings.Contains(line, want) {
				t.Errorf("%s: the %s(...) row for %s does not give its interval %s", doc, class, row.Name, want)
			}
		}
	}
	for class, keys := range grammarTables() {
		for _, k := range keys {
			if !slices.Contains(documented[class], k) {
				t.Errorf("%s: %s key %s is not in the %s(...) table", doc, class, k, class)
			}
		}
		for _, k := range documented[class] {
			if !slices.Contains(keys, k) {
				t.Errorf("%s: the %s(...) table lists %s, which the parser does not declare", doc, class, k)
			}
		}
		delete(documented, class)
	}
	for class := range documented {
		t.Errorf("%s: documents a declaration class %s the parsers do not have", doc, class)
	}
}

// TestShippedScenarioTableMatchesFiles holds the "Worked examples" table
// of docs/scenario-format.md to the files it describes: every backticked
// span in a row's description that is exactly a declaration class, an
// element class or a key must occur as a whole word in that row's
// examples/scenarios file, so a row cannot claim a construct its file
// does not use.
func TestShippedScenarioTableMatchesFiles(t *testing.T) {
	const doc = "docs/scenario-format.md"
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for class, keys := range grammarTables() {
		names[class] = true
		for _, k := range keys {
			names[k] = true
		}
	}
	row := regexp.MustCompile("^\\| `(\\w+\\.click)` \\| (.*) \\|$")
	span := regexp.MustCompile("`([^`]+)`")
	rows := 0
	for _, line := range strings.Split(string(text), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		file, err := os.ReadFile(filepath.Join("examples/scenarios", m[1]))
		if err != nil {
			t.Errorf("%s: the worked-examples row names %s: %v", doc, m[1], err)
			continue
		}
		for _, sm := range span.FindAllStringSubmatch(m[2], -1) {
			if name := sm[1]; names[name] && !regexp.MustCompile(`\b`+name+`\b`).Match(file) {
				t.Errorf("%s: the %s row cites `%s`, which the file does not use", doc, m[1], name)
			}
		}
	}
	if rows == 0 {
		t.Fatalf("%s: no worked-examples rows found", doc)
	}
}

// TestGrammarKeysDeclaredOnce walks the key tables and the non-test
// source of the key-declaring packages: each key's string literal must
// occur exactly once per class that declares it — in its table row.
// Twice means some code is again matching the key by hand beside the
// table.
func TestGrammarKeysDeclaredOnce(t *testing.T) {
	want := map[string]int{}
	for _, keys := range grammarTables() {
		for _, k := range keys {
			want[k]++
		}
	}
	got := map[string]int{}
	for _, dir := range keyDeclaringDirs {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			ast.Inspect(pkg, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && want[s] > 0 {
						got[s]++
					}
				}
				return true
			})
		}
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("key %q: %d string literals in %v, want %d (one per declaring table row)", k, got[k], keyDeclaringDirs, n)
		}
	}
}

// TestMetricFamiliesDocumented holds docs/observability.md to the
// registry in both directions: every family a runtime registers is named
// in the document's family reference, with its kind and label names, and
// every dataplane_* name the document mentions is a registered family.
func TestMetricFamiliesDocumented(t *testing.T) {
	const doc = "docs/observability.md"
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := runtime.NewRuntime(runtime.Config{
		Cfg: hw.DefaultConfig(), Params: apps.Small(), Metrics: reg,
		Apps: []runtime.AppSpec{{Name: "mon", Type: apps.MON, Workers: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, f := range reg.Snapshot().Families {
		registered[f.Name] = true
		labels := strings.Join(f.Labels, ", ")
		if labels == "" {
			labels = "—"
		}
		if row := "| `" + f.Name + "` | " + string(f.Kind) + " | " + labels + " |"; !strings.Contains(string(text), row) {
			t.Errorf("%s: the family reference has no row starting %q", doc, row)
		}
	}
	for _, name := range regexp.MustCompile(`dataplane_[a-z0-9_]+`).FindAllString(string(text), -1) {
		if !registered[name] {
			t.Errorf("%s names %s, which the runtime does not register", doc, name)
		}
	}
}

// TestInternalPackagesHaveDocComments walks internal/* and fails on any
// package whose files all lack a package comment — the godoc contract
// that every subsystem explains what it models and which part of the
// paper it reproduces (docs/ARCHITECTURE.md is the map; the package
// comments are the territory).
func TestInternalPackagesHaveDocComments(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join("internal", e.Name())
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			var doc string
			for _, f := range pkg.Files {
				if f.Doc != nil {
					doc += f.Doc.Text()
				}
			}
			if strings.TrimSpace(doc) == "" {
				t.Errorf("package %s (%s) has no package comment; document what it models and which paper section it reproduces", name, dir)
				continue
			}
			if len(strings.TrimSpace(doc)) < 80 {
				t.Errorf("package %s (%s): package comment %q is too thin to explain what the package models", name, dir, doc)
			}
		}
	}
}

// TestREADMELinksDocs pins the documentation entry points: the README
// must point readers at the architecture overview and the scenario
// grammar reference, and both files must exist.
func TestREADMELinksDocs(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"docs/ARCHITECTURE.md", "docs/scenario-format.md", "docs/observability.md", "docs/static-analysis.md"} {
		if _, err := os.Stat(doc); err != nil {
			t.Errorf("%s missing: %v", doc, err)
		}
		if !strings.Contains(string(readme), doc) {
			t.Errorf("README does not link %s", doc)
		}
	}
}

// TestDeparturesQuoteFig8Bound ties the README's "Where this reproduction
// departs from the paper" to the nightly gate: the Figure 8 row that names
// lint/fig8-full.bound quotes the file's value, and the full-scale worst
// error it states (in bold) is below it.
func TestDeparturesQuoteFig8Bound(t *testing.T) {
	data, err := os.ReadFile("lint/fig8-full.bound")
	if err != nil {
		t.Fatal(err)
	}
	bound := strings.TrimSpace(string(data))
	limit, err := strconv.ParseFloat(bound, 64)
	if err != nil {
		t.Fatalf("lint/fig8-full.bound: %v", err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Where this reproduction departs from the paper\n")
	if !ok {
		t.Fatal(`README has no "## Where this reproduction departs from the paper" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var row string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| Figure 8") && strings.Contains(line, "lint/fig8-full.bound") {
			row = line
		}
	}
	if row == "" {
		t.Fatal("the departures section has no Figure 8 row naming lint/fig8-full.bound")
	}
	if m := regexp.MustCompile("`lint/fig8-full.bound` = ([0-9.]+)").FindStringSubmatch(row); m == nil || m[1] != bound {
		t.Errorf("the Figure 8 row quotes the bound as %v, lint/fig8-full.bound holds %s:\n%s", m, bound, row)
	}
	m := regexp.MustCompile(`\*\*([0-9.]+) points\*\*`).FindStringSubmatch(row)
	if m == nil {
		t.Fatalf("the Figure 8 row states no full-scale worst error as **N points**:\n%s", row)
	}
	if worst, _ := strconv.ParseFloat(m[1], 64); worst >= limit {
		t.Errorf("the Figure 8 row's full-scale worst error %v points is not below lint/fig8-full.bound %v", worst, limit)
	}
}
