// Package analysis is vetdp's domain-specific static-analysis suite: a
// small, dependency-free reimplementation of the go/analysis model plus
// two analyzers that machine-check the dataplane's correctness-of-
// accounting invariants. The paper's thesis — performance is predictable
// only when every cycle and cache reference is accounted for — holds in
// this repo only while two disciplines hold: every emitted micro-op
// carries its element slot (hw.Op.Elem), and hot loops allocate nothing.
// Those rules rot silently when enforced by benchmarks alone (Synth's raw
// EmitPacket ops once went unstamped and hid an aggressor element under
// the overhead slot); this package turns them into build errors.
//
// The two analyzers:
//
//   - hotpathalloc: functions annotated //dataplane:hotpath must be
//     allocation-free — heap-escaping composite literals, growing
//     appends, map writes, capturing closures, interface conversions and
//     fmt/string building are flagged.
//   - elemstamp: micro-op emission outside the pipeline walker's SetElem
//     bracket must be explicit — raw hw.Op literals without an Elem
//     field, raw EmitPacket calls inside Process brackets (the PR 7 bug
//     class), and Ctx emission from unbracketed helpers all require a
//     //dataplane:stamped annotation.
//
// Every analyzer honours the //dataplane:allow <analyzer> <reason>
// escape hatch (same line, or the enclosing function's or type's doc
// comment), and the driver reports any //dataplane: directive it does not
// know. See docs/static-analysis.md for the annotation grammar.
//
// The framework mirrors golang.org/x/tools/go/analysis deliberately —
// Analyzer, Pass, diagnostics — but is built on the standard library
// only, so the repo stays dependency-free. Check is the one driver: the
// root package's TestVetdp runs it over every package of the module's
// type-checked load.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check. Run inspects a single type-checked
// package's non-test files through its Pass and reports diagnostics; it
// must be stateless across packages.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //dataplane:allow
	// directives.
	Name string
	// Doc is the one-paragraph description of what the analyzer checks.
	Doc string
	// Run performs the check.
	Run func(*Pass)
}

// Pass carries one package's syntax and types into an analyzer,
// mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Report delivers one diagnostic.
	Report func(Diagnostic)

	dirs *directiveIndex
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos unless an
// //dataplane:allow directive for this analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.allowed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full vetdp analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{HotPathAlloc, ElemStamp}
}

// Check runs vetdp over one type-checked package — the directive check,
// then every analyzer in All — and returns the diagnostics in report
// order. files are the package's non-test files: the suite checks
// production hot paths, and test code (fixtures, gates, fakes) breaks
// the rules on purpose.
func Check(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	checkDirectives(files, report)
	for _, a := range All() {
		a.Run(&Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, Report: report})
	}
	return diags
}
