package analysis

// An analysistest-style golden-test harness, stdlib-only. Fixture
// packages live under testdata/src/<path>; a test names the fixture
// packages in dependency order and the harness parses and type-checks
// them against each other (imports between fixtures resolve by their
// directory name) and against the real standard library (via export
// data from `go list -export`, so it works offline).
//
// Expected diagnostics are `// want "regex"` comments: every diagnostic
// must land on a line carrying a want whose regex matches its message,
// and every want must be matched. Fixtures run through Check, the
// driver the root's TestVetdp uses: the directive check and every
// analyzer, so each fixture also pins what the other analyzer leaves alone.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// stdExports maps standard-library import paths to export-data files,
// produced once per test binary.
var stdExports = sync.OnceValues(func() (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", "fmt", "sync/atomic")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list std deps: %v\n%s", err, stderr.String())
	}
	out := map[string]string{}
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
})

// fixturePkg is one type-checked fixture package.
type fixturePkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// fixtureImporter resolves fixture-local imports by path, falling back
// to standard-library export data.
type fixtureImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.local[path]; ok {
		return p, nil
	}
	return fi.std.Import(path)
}

// loadFixtures type-checks the named testdata/src packages in order.
func loadFixtures(t *testing.T, fset *token.FileSet, paths ...string) []*fixturePkg {
	t.Helper()
	exports, err := stdExports()
	if err != nil {
		t.Fatal(err)
	}
	imp := &fixtureImporter{
		local: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("fixture imports %q, which is not in the harness's std set", path)
			}
			return os.Open(file)
		}),
	}
	var out []*fixturePkg
	for _, path := range paths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", path, err)
		}
		imp.local[path] = tpkg
		out = append(out, &fixturePkg{path: path, files: files, pkg: tpkg, info: info})
	}
	return out
}

var wantRE = regexp.MustCompile(`// want ((?:\x60[^\x60]*\x60|"(?:[^"\\]|\\.)*")(?:\s+(?:\x60[^\x60]*\x60|"(?:[^"\\]|\\.)*"))*)`)
var wantArgRE = regexp.MustCompile(`\x60[^\x60]*\x60|"(?:[^"\\]|\\.)*"`)

// wantExpectation is one `// want` regex at a file:line.
type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants scans the fixture sources for `// want` comments.
func collectWants(t *testing.T, pkgs []*fixturePkg, fset *token.FileSet) []*wantExpectation {
	t.Helper()
	seen := map[string]bool{}
	var out []*wantExpectation
	for _, p := range pkgs {
		for _, f := range p.files {
			name := fset.Position(f.Package).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, lineText := range strings.Split(string(src), "\n") {
				m := wantRE.FindStringSubmatch(lineText)
				if m == nil {
					continue
				}
				for _, arg := range wantArgRE.FindAllString(m[1], -1) {
					var pattern string
					if arg[0] == '`' {
						pattern = arg[1 : len(arg)-1]
					} else {
						unq := arg[1 : len(arg)-1]
						pattern = strings.NewReplacer(`\"`, `"`, `\\`, `\`).Replace(unq)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %s: %v", name, i+1, arg, err)
					}
					out = append(out, &wantExpectation{file: name, line: i + 1, re: re})
				}
			}
		}
	}
	return out
}

// checkFixtures runs Check — the directive check and every analyzer —
// over the fixture packages (dependency order) and diffs its diagnostics
// against the `// want` comments.
func checkFixtures(t *testing.T, paths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := loadFixtures(t, fset, paths...)
	wants := collectWants(t, pkgs, fset)
	for _, p := range pkgs {
		for _, d := range Check(fset, p.files, p.pkg, p.info) {
			pos, found := fset.Position(d.Pos), false
			for _, w := range wants {
				if w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
					w.matched = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("unexpected diagnostic at %s:%d: %s", pos.Filename, pos.Line, d.Message)
			}
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}
