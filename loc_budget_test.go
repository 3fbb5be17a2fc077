// The non-test line budget. ROADMAP aim 2 makes non-test line count a
// tracked quantity: each top-level package under internal/ and cmd/ has
// a ceiling committed in lint/loc-budget.txt, and growing past it fails
// here, so growth is a reviewed edit to that file rather than drift.
package pktpredict_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// nonTestLines counts the lines of every non-test .go file under each
// internal/<pkg> and cmd/<pkg>, exactly as
//
//	find D -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
//
// does (testdata included), keyed by that two-element path.
func nonTestLines() (map[string]int, error) {
	counts := map[string]int{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			parts := strings.Split(filepath.ToSlash(path), "/")
			if len(parts) < 3 {
				return fmt.Errorf("%s: .go file outside a package directory", path)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			counts[parts[0]+"/"+parts[1]] += bytes.Count(data, []byte{'\n'})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return counts, nil
}

func TestNonTestLineBudget(t *testing.T) {
	const budgetFile = "lint/loc-budget.txt"
	data, err := os.ReadFile(budgetFile)
	if err != nil {
		t.Fatal(err)
	}
	ceilings := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var pkg string
		var n int
		if _, err := fmt.Sscanf(line, "%s %d", &pkg, &n); err != nil {
			t.Fatalf("%s:%d: want \"<package> <ceiling>\", got %q", budgetFile, i+1, line)
		}
		ceilings[pkg] = n
	}
	counts, err := nonTestLines()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(counts))
	total := 0
	for pkg, n := range counts {
		pkgs = append(pkgs, pkg)
		total += n
	}
	sort.Strings(pkgs)
	counts["total"] = total
	for _, pkg := range append(pkgs, "total") {
		ceiling, ok := ceilings[pkg]
		switch {
		case !ok:
			t.Errorf("%s has %d non-test lines but no ceiling in %s; budget it", pkg, counts[pkg], budgetFile)
		case counts[pkg] > ceiling:
			t.Errorf("%s has %d non-test lines, over its ceiling of %d: delete code, or raise the ceiling in %s and justify it in the PR",
				pkg, counts[pkg], ceiling, budgetFile)
		}
		delete(ceilings, pkg)
	}
	for pkg := range ceilings {
		t.Errorf("%s lists %s, which no longer exists; prune it", budgetFile, pkg)
	}
}

// TestExportedNamesAreUsed is the census of dead exported API, as a test
// run: an exported func or method declared in a non-test file under
// internal/ or cmd/ whose name occurs nowhere else in the repository's .go
// files — tests, examples/ and bench/ included, comments and other
// declarations of the same name not — has no caller and fails here, by
// name. There is no allow-list: a name that must stay gets a caller or a
// test.
func TestExportedNamesAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // exported func name → a census file declaring it
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		path = filepath.ToSlash(path)
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		census := (strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")) && !strings.HasSuffix(path, "_test.go")
		declNames := map[*ast.Ident]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declNames[n.Name] = true
				if census && n.Name.IsExported() {
					declared[n.Name.Name] = path
				}
			case *ast.Ident:
				if !declNames[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, path := range declared {
		if !used[name] {
			t.Errorf("%s: exported %s is declared and never named again; delete it, or give it a caller or a test", path, name)
		}
	}
}
