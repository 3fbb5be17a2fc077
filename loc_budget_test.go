// The non-test line budget. ROADMAP aim 2 makes non-test line count a
// tracked quantity: each top-level package under internal/ and cmd/ has
// a ceiling committed in lint/loc-budget.txt, and growing past it fails
// here, so growth is a reviewed edit to that file rather than drift.
package pktpredict_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pktpredict/internal/runtime"
	"pktpredict/internal/sweep"
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

// testOnlyAPI reads lint/test-only-api.txt and returns the listed names of
// one kind: "func" (the "<pkg>.<Func>()" and "<pkg>.<Type>.<Method>()"
// lines), "field" (the "<pkg>.<Type>.<Field>" lines) or "tally" (the
// "<pkg>.<Type>.<Field>++" lines, returned without the "++").
func testOnlyAPI(t *testing.T, kind string) map[string]bool {
	t.Helper()
	const listFile = "lint/test-only-api.txt"
	roles := map[string]bool{"oracle": true, "observer": true, "instrument": true, "deferred": true}
	data, err := os.ReadFile(listFile)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 || !roles[f[1]] || !strings.Contains(f[0], ".") {
			t.Errorf("%s:%d: want \"<pkg>.<Name> oracle|observer|instrument|deferred <why>\", got %q", listFile, i+1, line)
			continue
		}
		name := f[0]
		switch {
		case strings.HasSuffix(name, "()"):
			if kind == "func" {
				listed[name] = true
			}
		case strings.HasSuffix(name, "++"):
			if kind == "tally" {
				listed[strings.TrimSuffix(name, "++")] = true
			}
		case strings.HasSuffix(name, "="):
			if kind == "assigned" {
				listed[strings.TrimSuffix(name, "=")] = true
			}
		case kind == "field":
			listed[name] = true
		}
	}
	return listed
}

// stdCalled are the standard-library interfaces whose methods the
// standard library calls: a method that implements one is used whether or
// not the module names it.
var stdCalled = map[string][]string{
	"fmt":           {"Stringer"},
	"flag":          {"Value"},
	"sort":          {"Interface"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
	"net/http":      {"Handler"},
	"io":            {"Reader", "Writer"},
}

// TestExportedNamesAreUsed is the census of dead exported API, as a test
// run over the module's typed load. An exported func or method declared in
// a non-test file under internal/ or cmd/ is used on a side — non-test code
// (internal/, cmd/, examples/ or bench/) or tests — when code on that side
// names its object, when it is a method and that side names the same-named
// method of an interface its receiver implements, or when it implements a
// standard-library interface the standard library calls (stdCalled, and
// error). A func or method only tests use must be listed, with its role,
// in lint/test-only-api.txt as "<pkg>.<Func>()" or "<pkg>.<Type>.<Method>()":
// an oracle (a reference implementation a test compares against), an
// observer (an accessor a test asserts on), an instrument (a measurement a
// guard test takes) or deferred (kept for a named open item). The list is
// checked both ways, like lint/knobs.txt: an unlisted test-only name fails,
// and so does a listed name that gained a production caller or no longer
// exists.
func TestExportedNamesAreUsed(t *testing.T) {
	const listFile = "lint/test-only-api.txt"
	listed := testOnlyAPI(t, "func")
	m := loadModule(t)
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	// A func is known by its declaration's position: the package's test
	// copy declares it again, as another object, at the same place.
	used := [2]map[token.Pos]bool{{}, {}}         // by non-test code, by tests → funcs named
	dispatched := [2]map[ifaceMethod]bool{{}, {}} // by non-test code, by tests → interface methods named
	stdCall := func(obj types.Object) {
		iface := obj.Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			dispatched[0][ifaceMethod{iface, iface.Method(i).Name()}] = true
		}
	}
	stdCall(types.Universe.Lookup("error"))
	for path, names := range stdCalled {
		pkg, err := m.std.ImportFrom(path, ".", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			stdCall(pkg.Scope().Lookup(name))
		}
	}
	var declared []*types.Func // exported funcs and methods declared in non-test files under internal/ and cmd/
	for _, p := range m.pkgs {
		// A test copy's Info covers the package's non-test files too, but a
		// func named there is named by the plain copy's Info as well.
		for side, info := range []*types.Info{p.info, p.testInfo, p.xinfo} {
			if info == nil {
				continue
			}
			side = min(side, 1)
			for _, obj := range info.Uses {
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				fn = fn.Origin()
				used[side][fn.Pos()] = true
				if iface, ok := receiver(fn).Underlying().(*types.Interface); ok {
					dispatched[side][ifaceMethod{iface, fn.Name()}] = true
				}
			}
		}
		if p.nonTest == 0 || !strings.HasPrefix(p.path, "pktpredict/internal/") && !strings.HasPrefix(p.path, "pktpredict/cmd/") {
			continue
		}
		for id, obj := range p.info.Defs {
			if fn, ok := obj.(*types.Func); ok && id.IsExported() && !types.IsInterface(receiver(fn)) {
				declared = append(declared, fn)
			}
		}
	}
	usedBy := func(side int, fn *types.Func) bool {
		if used[side][fn.Pos()] {
			return true
		}
		recv, ok := receiver(fn).(*types.Named)
		if !ok {
			return false
		}
		for d := range dispatched[side] {
			if d.name == fn.Name() && (types.Implements(recv, d.iface) || types.Implements(types.NewPointer(recv), d.iface)) {
				return true
			}
		}
		return false
	}
	sort.Slice(declared, func(i, j int) bool { return declared[i].Pos() < declared[j].Pos() })
	for _, fn := range declared {
		name, at := qualifiedName(fn), m.fset.Position(fn.Pos())
		switch {
		case usedBy(0, fn):
			if listed[name] {
				t.Errorf("%s lists %s, which now has a production caller; delete the line", listFile, name)
			}
		case !usedBy(1, fn):
			t.Errorf("%s: exported %s is declared and never called; delete it, or give it a caller", at, name)
		case !listed[name]:
			t.Errorf("%s: exported %s has only test callers; give it a production caller, delete it, or list it with its role in %s", at, name, listFile)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("%s lists %s, which no longer exists; delete the line", listFile, name)
	}
}

// receiver is a func's receiver type without its pointer, or the invalid
// type for a plain func.
func receiver(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return types.Typ[types.Invalid]
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// qualifiedName is a func's lint/test-only-api.txt name:
// "<pkg>.<Func>()" or "<pkg>.<Type>.<Method>()".
func qualifiedName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv, ok := receiver(fn).(*types.Named); ok {
		name += recv.Obj().Name() + "."
	}
	return name + fn.Name() + "()"
}

// TestUnexecutedLedgerNamesFunctions checks lint/unexecuted.txt, the
// ledger of code production never runs on purpose that lint/census.sh
// reads: every line is "<pkg>.<Func>() func|block <why>" or the method
// form, and names a function declared in a non-test file of the module
// outside bench/, so a deleted path takes its line with it.
func TestUnexecutedLedgerNamesFunctions(t *testing.T) {
	const listFile = "lint/unexecuted.txt"
	data, err := os.ReadFile(listFile)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, p := range loadModule(t).pkgs {
		if p.nonTest == 0 || strings.HasPrefix(p.path, "pktpredict/bench") {
			continue
		}
		for _, obj := range p.info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				declared[qualifiedName(fn)] = true
			}
		}
	}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case len(f) < 3 || f[1] != "func" && f[1] != "block" || !strings.HasSuffix(f[0], "()"):
			t.Errorf("%s:%d: want \"<pkg>.<Func>() func|block <why>\", got %q", listFile, i+1, line)
		case !declared[f[0]]:
			t.Errorf("%s:%d: %s names no function of the module; delete the line", listFile, i+1, f[0])
		}
	}
}

// TestExportedFieldsAreWritten is TestExportedNamesAreUsed's census for
// struct fields. An exported field of a struct type declared in a non-test
// file under internal/ must be written by a non-test file under internal/,
// cmd/, examples/ or bench/. Writes are a keyed composite-literal key, a
// positional composite literal of the type (which writes every field), an
// assignment, ++/--, &x.F, a method call on x.F, and a json: tag (decoding
// writes the field). The census goes by field name, so a field passes when
// any struct's field of that name is written. A field only tests write is
// listed in lint/test-only-api.txt as "<pkg>.<Type>.<Field> <role> <why>",
// checked both ways.
func TestExportedFieldsAreWritten(t *testing.T) {
	listed := testOnlyAPI(t, "field")
	fset := token.NewFileSet()
	declared := map[string]string{}                             // "pkg.Type.Field" under internal/ → Field
	fieldsOf := map[string][]string{}                           // struct type name → its exported fields
	written := map[bool]map[string]bool{false: {}, true: {}}    // by a test file? → field names
	positional := map[bool]map[string]bool{false: {}, true: {}} // by a test file? → type names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		path = filepath.ToSlash(path)
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(path, "_test.go")
		w := written[test]
		// lvalue marks every field along an lvalue: x.F.G[i] writes G and F.
		var lvalue func(e ast.Expr)
		lvalue = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				w[e.Sel.Name] = true
				lvalue(e.X)
			case *ast.IndexExpr:
				lvalue(e.X)
			case *ast.StarExpr:
				lvalue(e.X)
			case *ast.ParenExpr:
				lvalue(e.X)
			}
		}
		elided := map[*ast.CompositeLit]ast.Expr{} // an element literal without a type → its slice or map's element type
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || test || !strings.HasPrefix(path, "internal/") {
					break
				}
				for _, f := range st.Fields.List {
					decoded := f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`) && !strings.Contains(f.Tag.Value, `json:"-"`)
					for _, id := range f.Names {
						if id.IsExported() {
							fieldsOf[n.Name.Name] = append(fieldsOf[n.Name.Name], id.Name)
							declared[file.Name.Name+"."+n.Name.Name+"."+id.Name] = id.Name
							w[id.Name] = w[id.Name] || decoded
						}
					}
				}
			case *ast.CompositeLit:
				typ := n.Type
				if typ == nil {
					typ = elided[n]
				}
				typ = typeBase(typ)
				var elem ast.Expr
				switch tt := typ.(type) {
				case *ast.ArrayType:
					elem = tt.Elt
				case *ast.MapType:
					elem = tt.Value
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && elem == nil {
							w[id.Name] = true
						}
						e = kv.Value
					} else if id, ok := typ.(*ast.Ident); ok {
						positional[test][id.Name] = true
					}
					if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil && elem != nil {
						elided[lit] = elem
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lvalue(e)
				}
			case *ast.IncDecStmt:
				lvalue(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lvalue(n.X)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					lvalue(sel.X)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for test, types := range positional {
		for typ := range types {
			for _, f := range fieldsOf[typ] {
				written[test][f] = true
			}
		}
	}
	names := make([]string, 0, len(declared))
	for name := range declared {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch f := declared[name]; {
		case written[false][f]:
			if listed[name] {
				t.Errorf("lint/test-only-api.txt lists %s, which a non-test file now writes; delete the line", name)
			}
		case !written[true][f]:
			t.Errorf("exported field %s is never written; delete it, or give it a setter", name)
		case !listed[name]:
			t.Errorf("exported field %s is written only by tests; give it a production setter, delete it, or list it with its role in lint/test-only-api.txt", name)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("lint/test-only-api.txt lists field %s, which no longer exists; delete the line", name)
	}
}

// typeBase strips pointers, type arguments and a package qualifier from a
// type expression.
func typeBase(e ast.Expr) ast.Expr {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel
		default:
			return e
		}
	}
}

// modulePkg is one directory of the module, type-checked: its non-test
// files, and apart from them its in-package and external test files.
type modulePkg struct {
	bp          *build.Package
	path        string
	files       []*ast.File // non-test, then in-package test files
	xfiles      []*ast.File // the external test package
	nonTest     int         // files[:nonTest] are the non-test files
	pkg, tested *types.Package
	// The Info of files[:nonTest], of files (the test copy) and of xfiles.
	info, testInfo, xinfo *types.Info
}

// typedModule is the module parsed, comments included, and type-checked
// once per test binary: the read census, the exported-name census and
// vetdp all walk this one load.
type typedModule struct {
	fset *token.FileSet
	pkgs []*modulePkg // sorted by import path
	std  types.ImporterFrom
}

// eachFile calls check on every checked file with the Info that describes
// it and the file's path.
func (m *typedModule) eachFile(check func(info *types.Info, file *ast.File, path string)) {
	visit := func(info *types.Info, files []*ast.File) {
		for _, f := range files {
			check(info, f, m.fset.File(f.Pos()).Name())
		}
	}
	for _, p := range m.pkgs {
		visit(p.info, p.files[:p.nonTest])
		visit(p.testInfo, p.files[p.nonTest:])
		visit(p.xinfo, p.xfiles)
	}
}

var typedLoad = sync.OnceValues(typeCheckModule)

// loadModule returns the module's one type-checked load.
func loadModule(t *testing.T) *typedModule {
	t.Helper()
	m, err := typedLoad()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// typeCheckModule parses every package of the module — internal/, cmd/,
// examples/, the nested bench/ module and the root's tests — honouring
// build constraints, and type-checks it with go/types: GOROOT packages from
// source, the module's own in import order. Each package's in-package test
// files are checked with a second copy of it, and its external test
// package against that copy, as go test builds them.
func typeCheckModule() (*typedModule, error) {
	// The source importer would run cgo for net; its pure-Go files type-check the same.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	fset := token.NewFileSet()
	m := &typedModule{fset: fset, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	pkgs := map[string]*modulePkg{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		p := &modulePkg{bp: bp, path: strings.TrimSuffix("pktpredict/"+filepath.ToSlash(dir), "/.")}
		parse := func(names []string) ([]*ast.File, error) {
			var files []*ast.File
			for _, name := range names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			return files, nil
		}
		if p.files, err = parse(append(bp.GoFiles, bp.TestGoFiles...)); err != nil {
			return err
		}
		p.nonTest = len(bp.GoFiles)
		if p.xfiles, err = parse(bp.XTestGoFiles); err != nil {
			return err
		}
		pkgs[p.path] = p
		m.pkgs = append(m.pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(m.pkgs, func(i, j int) bool { return m.pkgs[i].path < m.pkgs[j].path })
	imports := func(self *modulePkg) importFunc {
		return func(path string) (*types.Package, error) {
			if self != nil && path == self.path {
				return self.tested, nil
			}
			if p := pkgs[path]; p != nil {
				return p.pkg, nil
			}
			return m.std.ImportFrom(path, ".", 0)
		}
	}
	newInfo := func() *types.Info {
		return &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
	}
	// The non-test packages, in import order, must type-check cleanly.
	done := map[string]bool{}
	var visit func(p *modulePkg) error
	visit = func(p *modulePkg) error {
		if done[p.path] {
			return nil
		}
		done[p.path] = true
		for _, imp := range p.bp.Imports {
			if q := pkgs[imp]; q != nil {
				if err := visit(q); err != nil {
					return err
				}
			}
		}
		if p.nonTest == 0 {
			return nil
		}
		p.info = newInfo()
		conf := types.Config{Importer: imports(nil)}
		pkg, err := conf.Check(p.path, fset, p.files[:p.nonTest], p.info)
		if err != nil {
			return fmt.Errorf("type-checking %s: %v", p.path, err)
		}
		p.pkg = pkg
		return nil
	}
	for _, p := range m.pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	// Test files see the package's test copy, which is a second set of
	// objects: a test mixing it with a package that imports the plain copy
	// has type errors that do not hide a field access, so they are ignored.
	for _, p := range m.pkgs {
		conf := types.Config{Importer: imports(p), Error: func(error) {}}
		p.tested = p.pkg
		if len(p.files) > p.nonTest {
			p.testInfo = newInfo()
			p.tested, _ = conf.Check(p.path, fset, p.files, p.testInfo)
		}
		if len(p.xfiles) > 0 {
			p.xinfo = newInfo()
			conf.Check(p.path+"_test", fset, p.xfiles, p.xinfo)
		}
	}
	return m, nil
}

type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestCountersAreRead is the read side of TestExportedFieldsAreWritten, with
// type information. An exported field declared in a non-test file under
// internal/ that non-test code writes — a tally (++, --, += or -=) or a
// plain assignment; a store of the literal 0 resets a field, and a
// composite-literal element whose value is a constant or a make(...) call
// starts a tally, neither counting as a write — must be read by non-test
// code (internal/, cmd/, examples/ or bench/), or be listed in
// lint/test-only-api.txt as "<pkg>.<Type>.<Field>++" (every write a tally)
// or "<pkg>.<Type>.<Field>=" with its role and why, checked both ways. A
// read is any other use of the field: a selector that is not an lvalue —
// a method call on the field and taking its address included — a json:
// tag (encoding reads the field), or the whole struct compared with == or
// != or passed to a function.
// Going by object rather than name matters here: Packets, Dropped and
// Hits are read somewhere under the same name for other structs.
func TestCountersAreRead(t *testing.T) {
	type use struct {
		counted, assigned bool    // by non-test code: ++/--/+=/-=, any other write
		read              [2]bool // by non-test code, by a test
	}
	// A field is known by its declaration's position: the package's test
	// copy declares it again, as another object, at the same place.
	uses := map[token.Pos]*use{}
	of := func(v *types.Var) *use {
		p := v.Origin().Pos()
		if uses[p] == nil {
			uses[p] = &use{}
		}
		return uses[p]
	}
	census := map[token.Pos]string{} // exported fields declared in non-test files under internal/ → "pkg.Type.Field"
	loadModule(t).eachFile(func(info *types.Info, file *ast.File, path string) {
		test := strings.HasSuffix(path, "_test.go")
		reader := 0 // index into use.read
		if test {
			reader = 1
		}
		fieldOf := func(e ast.Expr) *types.Var {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return s.Obj().(*types.Var)
				}
			}
			return nil
		}
		lvalues := map[ast.Expr]bool{} // field selectors written, or on the path to a write
		var write func(e ast.Expr, counted bool)
		write = func(e ast.Expr, counted bool) {
			switch e := e.(type) {
			case *ast.ParenExpr:
				write(e.X, counted)
			case *ast.IndexExpr:
				write(e.X, counted)
			case *ast.StarExpr:
				write(e.X, false)
			case *ast.SelectorExpr:
				if v := fieldOf(e); v != nil {
					lvalues[e] = true
					if !test {
						u := of(v)
						u.counted = u.counted || counted
						u.assigned = u.assigned || !counted
					}
					write(e.X, false)
				}
			}
		}
		// wholly marks every field of a struct value as read, through
		// arrays, slices and maps but not pointers.
		var wholly func(typ types.Type, seen map[types.Type]bool)
		wholly = func(typ types.Type, seen map[types.Type]bool) {
			if typ == nil || seen[typ] {
				return
			}
			seen[typ] = true
			switch u := typ.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					of(u.Field(i)).read[reader] = true
					wholly(u.Field(i).Type(), seen)
				}
			case *types.Array:
				wholly(u.Elem(), seen)
			case *types.Slice:
				wholly(u.Elem(), seen)
			case *types.Map:
				wholly(u.Elem(), seen)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || test || !strings.HasPrefix(path, "internal/") {
					break
				}
				for _, f := range st.Fields.List {
					encoded := f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`) && !strings.Contains(f.Tag.Value, `json:"-"`)
					for _, id := range f.Names {
						if id.IsExported() {
							census[id.Pos()] = file.Name.Name + "." + n.Name.Name + "." + id.Name
							if encoded {
								of(info.Defs[id].(*types.Var)).read[0] = true
							}
						}
					}
				}
			case *ast.IncDecStmt:
				write(n.X, true)
			case *ast.AssignStmt:
				for i, e := range n.Lhs {
					if sel, ok := e.(*ast.SelectorExpr); ok && fieldOf(sel) != nil && n.Tok == token.ASSIGN &&
						len(n.Rhs) == len(n.Lhs) && isZeroLit(n.Rhs[i]) {
						lvalues[sel] = true // a reset: neither a read nor an assignment
						write(sel.X, false)
						continue
					}
					write(e, n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN)
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					write(n.Key, false)
					write(n.Value, false)
				}
			case *ast.CompositeLit:
				if test {
					break
				}
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					field := st.Field(i)
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						field, e = info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
					}
					if !startsTally(info, e) {
						of(field).assigned = true
					}
				}
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() || tv.IsBuiltin() {
					break
				}
				for _, arg := range n.Args {
					wholly(info.Types[arg].Type, map[types.Type]bool{})
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					wholly(info.Types[n.X].Type, map[types.Type]bool{})
					wholly(info.Types[n.Y].Type, map[types.Type]bool{})
				}
			case *ast.SelectorExpr:
				if v := fieldOf(n); v != nil && !lvalues[n] {
					of(v).read[reader] = true
				}
			}
			return true
		})
	})
	// An entry is the field's listing: "pkg.Type.Field++" for a tally,
	// "pkg.Type.Field=" for a field non-test code assigns.
	const listFile = "lint/test-only-api.txt"
	listed := map[string]bool{}
	for name := range testOnlyAPI(t, "tally") {
		listed[name+"++"] = true
	}
	for name := range testOnlyAPI(t, "assigned") {
		listed[name+"="] = true
	}
	written := map[string]*use{}
	var entries []string
	for pos, name := range census {
		if u := uses[pos]; u != nil && (u.counted || u.assigned) {
			entry := name + "++"
			if u.assigned {
				entry = name + "="
			}
			written[entry] = u
			entries = append(entries, entry)
		}
	}
	sort.Strings(entries)
	for _, entry := range entries {
		name := strings.TrimRight(entry, "+=")
		switch u := written[entry]; {
		case u.read[0]:
			if listed[entry] {
				t.Errorf("%s lists %s, which non-test code now reads; delete the line", listFile, entry)
			}
		case !u.read[1]:
			t.Errorf("field %s is only ever written; nothing reads it, so delete it", name)
		case !listed[entry]:
			t.Errorf("field %s is written by the program and read only by tests; give it a reader (a report, metric or decision), restate the test on an observable, or list it as %s with its role in %s", name, entry, listFile)
		}
		delete(listed, entry)
	}
	for entry := range listed {
		t.Errorf("%s lists %s, which is no longer a field the program writes and only tests read; delete the line", listFile, entry)
	}
}

// startsTally reports whether a composite-literal element's value e
// starts a tally rather than assigning the field: a constant, or a
// make(...) call (a table of counts).
func startsTally(info *types.Info, e ast.Expr) bool {
	if info.Types[e].Value != nil {
		return true
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "make"
}

// isZeroLit reports whether e is the integer literal 0.
func isZeroLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}

// knobRegistrars are the flag.FlagSet methods and flag package functions
// that register a flag, with the index of the name argument.
var knobRegistrars = map[string]int{
	"String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Float64": 0, "Bool": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"StringVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "Float64Var": 1, "BoolVar": 1, "DurationVar": 1,
	"Var": 1, "TextVar": 1,
}

// knobCensus lists every knob the tree has, one sorted line each: a flag
// registered in a non-test file under cmd/ ("flag cmd/dataplane
// -duration"; a name that is not a literal is rendered as its expression),
// an exported field of runtime.Config, runtime.AppSpec or sweep.Config
// ("field runtime.Config.RingSize"), and an os.Getenv/os.LookupEnv call site
// under internal/ or cmd/ ("env internal/x NAME"). A call is known by the
// object it calls, on the module's typed load: a *flag.FlagSet method or
// flag package function registers a flag whatever the receiver is named.
func knobCensus(t *testing.T) []string {
	t.Helper()
	var out []string
	name := func(e ast.Expr) string {
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, _ := strconv.Unquote(lit.Value)
			return s
		}
		return "<" + types.ExprString(e) + ">"
	}
	for _, p := range loadModule(t).pkgs {
		dir := strings.TrimPrefix(p.path, "pktpredict/")
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/") {
			continue
		}
		for _, file := range p.files[:p.nonTest] {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil { // the universe's error.Error
					return true
				}
				switch pkg := fn.Pkg().Path(); {
				case pkg == "flag" && strings.HasPrefix(dir, "cmd/"):
					recv := types.TypeString(receiver(fn), nil)
					if i, ok := knobRegistrars[fn.Name()]; ok && (recv == "invalid type" || recv == "flag.FlagSet") {
						out = append(out, "flag "+dir+" -"+name(call.Args[i]))
					}
				case pkg == "os" && (fn.Name() == "Getenv" || fn.Name() == "LookupEnv"):
					out = append(out, "env "+dir+" "+name(call.Args[0]))
				}
				return true
			})
		}
	}
	for _, v := range []any{runtime.Config{}, runtime.AppSpec{}, sweep.Config{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				out = append(out, "field "+typ.String()+"."+f.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestKnobCensus makes ROADMAP's house rule — no PR adds a flag, scenario
// key, Config field or env var without removing one — a test: the census
// must equal lint/knobs.txt line for line, so a knob added or removed is a
// reviewed edit to that file. Scenario, sweep and element keys are
// checked against docs/scenario-format.md instead.
func TestKnobCensus(t *testing.T) {
	const listFile = "lint/knobs.txt"
	data, err := os.ReadFile(listFile)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			listed[line]++
		}
	}
	for _, knob := range knobCensus(t) {
		if listed[knob] == 0 {
			t.Errorf("new knob %q: name the knob it replaces in the PR and edit %s", knob, listFile)
			continue
		}
		listed[knob]--
	}
	for knob, n := range listed {
		if n > 0 {
			t.Errorf("%s lists %q, which the tree no longer has; delete the line", listFile, knob)
		}
	}
}
