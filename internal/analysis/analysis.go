// Package analysis is vetdp's domain-specific static-analysis suite: a
// small, dependency-free reimplementation of the go/analysis model plus
// four analyzers that machine-check the dataplane's correctness-of-
// accounting invariants. The paper's thesis — performance is predictable
// only when every cycle and cache reference is accounted for — holds in
// this repo only while three disciplines hold: every emitted micro-op
// carries its element slot (hw.Op.Elem), hot loops allocate nothing, and
// cache-line-padded single-writer cells are never shared. PR 7 showed
// those rules rot silently when enforced by benchmarks alone (Synth's raw
// EmitPacket ops went unstamped for two PRs and hid an aggressor element
// under the overhead slot); this package turns them into build errors.
//
// The four analyzers:
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
//   - singlewriter: structs annotated //dataplane:cell must stay padded
//     to a 64-byte multiple, and their plain fields may only be touched
//     by the cell's own methods, sync/atomic, or functions annotated
//     //dataplane:owner.
//   - metriclint: metric families registered on an obs.Registry must
//     have compile-time-constant Prometheus-style names (counters ending
//     in _total, gauges and histograms not) and constant label names.
//
// Every analyzer honours the //dataplane:allow <analyzer> <reason>
// escape hatch (same line, or the enclosing function's or type's doc
// comment). See docs/static-analysis.md for the annotation grammar.
//
// The framework mirrors golang.org/x/tools/go/analysis deliberately —
// Analyzer, Pass, diagnostics, package facts — but is built on the
// standard library only, so the repo stays dependency-free. cmd/vetdp
// drives it as a `go vet -vettool` unit checker.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check. Run inspects a single type-checked
// package through its Pass and reports diagnostics; it must be stateless
// across packages (cross-package state travels as facts).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, CLI flags, and
	// //dataplane:allow directives.
	Name string
	// Doc is the one-paragraph description shown by vetdp -help.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// Pass carries one package's syntax, types, and fact plumbing into an
// analyzer, mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Sizes    types.Sizes

	// DepFacts returns the facts this analyzer exported while analyzing
	// the package's (transitive) dependencies. Nil-safe: drivers that do
	// not propagate facts leave it nil and analyzers see none.
	DepFacts func() []string
	// ExportFact publishes one fact string for dependent packages.
	// Nil-safe like DepFacts.
	ExportFact func(fact string)

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

// facts returns the dependency facts with the given space prefix
// stripped, e.g. prefix "cell " over singlewriter facts.
func (p *Pass) facts(prefix string) []string {
	if p.DepFacts == nil {
		return nil
	}
	var out []string
	for _, f := range p.DepFacts() {
		if strings.HasPrefix(f, prefix) {
			out = append(out, strings.TrimPrefix(f, prefix))
		}
	}
	return out
}

// exportFact publishes a fact if the driver propagates them.
func (p *Pass) exportFact(fact string) {
	if p.ExportFact != nil {
		p.ExportFact(fact)
	}
}

// NonTestFiles returns the pass's files excluding _test.go files: the
// suite checks production hot paths, and test code (fixtures, gates,
// fakes) routinely breaks the rules on purpose.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// All returns the full vetdp analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{HotPathAlloc, ElemStamp, SingleWriter, MetricLint}
}
