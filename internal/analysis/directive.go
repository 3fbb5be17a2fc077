package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive grammar. Directives are ordinary //-comments with no space
// after the slashes, the same convention as //go:noinline, so gofmt
// preserves them and godoc hides them:
//
//	//dataplane:hotpath
//	//dataplane:stamped <reason>
//	//dataplane:allow <analyzer> <reason>
//
// All three attach to a function through its doc comment; allow also
// works in a type's doc comment and as an end-of-line comment
// suppressing just that line's finding. Any other name is reported.
const directivePrefix = "//dataplane:"

// directive is one parsed //dataplane: comment.
type directive struct {
	name string // "hotpath", "stamped", "allow"
	args string // remainder after the name, space-trimmed
	pos  token.Pos
}

// parseDirectives extracts //dataplane: directives from a comment group.
func parseDirectives(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, directivePrefix)
		if !ok {
			continue
		}
		name, args, _ := strings.Cut(text, " ")
		// A directive's arguments end at an embedded "//": trailing
		// commentary on the same line is not part of the reason.
		if i := strings.Index(args, "//"); i >= 0 {
			args = args[:i]
		}
		out = append(out, directive{name: name, args: strings.TrimSpace(args), pos: c.Pos()})
	}
	return out
}

// hasDirective reports whether the comment group carries the named
// directive, returning its arguments.
func hasDirective(cg *ast.CommentGroup, name string) (args string, ok bool) {
	for _, d := range parseDirectives(cg) {
		if d.name == name {
			return d.args, true
		}
	}
	return "", false
}

// allowDirective is one //dataplane:allow occurrence.
type allowDirective struct {
	analyzer string
	reason   string
	pos      token.Pos
}

func toAllow(d directive) (allowDirective, bool) {
	if d.name != "allow" {
		return allowDirective{}, false
	}
	an, reason, _ := strings.Cut(d.args, " ")
	return allowDirective{analyzer: an, reason: strings.TrimSpace(reason), pos: d.pos}, true
}

// declSpan is one top-level declaration's extent and doc comment, the
// scope a doc-level directive covers.
type declSpan struct {
	pos, end token.Pos
	doc      *ast.CommentGroup
	typeDocs []*ast.CommentGroup // TypeSpec docs inside a GenDecl
}

// fileIndex is the per-file directive lookup structure.
type fileIndex struct {
	pos, end token.Pos
	allows   map[int][]allowDirective // line → end-of-line allows
	decls    []declSpan
}

// directiveIndex indexes a package's directives for the allow check.
type directiveIndex struct {
	files    []*fileIndex
	reported map[token.Pos]bool // malformed allows already complained about
}

func (p *Pass) directives() *directiveIndex {
	if p.dirs != nil {
		return p.dirs
	}
	idx := &directiveIndex{reported: map[token.Pos]bool{}}
	for _, f := range p.Files {
		fi := &fileIndex{pos: f.FileStart, end: f.FileEnd, allows: map[int][]allowDirective{}}
		for _, cg := range f.Comments {
			for _, d := range parseDirectives(cg) {
				if a, ok := toAllow(d); ok {
					line := p.Fset.Position(d.pos).Line
					fi.allows[line] = append(fi.allows[line], a)
				}
			}
		}
		for _, decl := range f.Decls {
			span := declSpan{pos: decl.Pos(), end: decl.End()}
			switch d := decl.(type) {
			case *ast.FuncDecl:
				span.doc = d.Doc
				if d.Doc != nil {
					span.pos = d.Doc.Pos()
				}
			case *ast.GenDecl:
				span.doc = d.Doc
				if d.Doc != nil {
					span.pos = d.Doc.Pos()
				}
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Doc != nil {
						span.typeDocs = append(span.typeDocs, ts.Doc)
					}
				}
			}
			fi.decls = append(fi.decls, span)
		}
		idx.files = append(idx.files, fi)
	}
	p.dirs = idx
	return idx
}

// allowed reports whether pos is covered by an //dataplane:allow for the
// pass's analyzer: an end-of-line allow on the same line, or a doc-level
// allow on the enclosing top-level declaration. An allow without a
// reason is itself diagnosed and suppresses nothing — the reason is the
// audit trail the escape hatch exists to capture.
func (p *Pass) allowed(pos token.Pos) bool {
	idx := p.directives()
	var fi *fileIndex
	for _, f := range idx.files {
		if pos >= f.pos && pos < f.end {
			fi = f
			break
		}
	}
	if fi == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	cands := append([]allowDirective(nil), fi.allows[line]...)
	for _, span := range fi.decls {
		if pos < span.pos || pos >= span.end {
			continue
		}
		for _, cg := range append([]*ast.CommentGroup{span.doc}, span.typeDocs...) {
			for _, d := range parseDirectives(cg) {
				if a, ok := toAllow(d); ok {
					cands = append(cands, a)
				}
			}
		}
	}
	for _, a := range cands {
		if a.analyzer != p.Analyzer.Name {
			continue
		}
		if a.reason == "" {
			if !idx.reported[a.pos] {
				idx.reported[a.pos] = true
				p.Report(Diagnostic{Pos: a.pos,
					Message: "//dataplane:allow " + a.analyzer + " needs a reason: the escape hatch records why the rule is intentionally broken"})
			}
			continue
		}
		return true
	}
	return false
}

// checkDirectives reports, once per comment, every //dataplane:
// directive in files that vetdp does not know: a name other than
// hotpath, stamped and allow, or an allow naming no analyzer in All().
// A misspelled directive would otherwise exempt its function silently.
func checkDirectives(files []*ast.File, report func(Diagnostic)) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, d := range parseDirectives(cg) {
				switch a, isAllow := toAllow(d); {
				case isAllow && !known[a.analyzer]:
					report(Diagnostic{Pos: d.pos, Message: fmt.Sprintf("//dataplane:allow names %q, which is not a vetdp analyzer: it suppresses nothing", a.analyzer)})
				case !isAllow && d.name != "hotpath" && d.name != "stamped":
					report(Diagnostic{Pos: d.pos, Message: fmt.Sprintf("unknown directive //dataplane:%s: vetdp knows hotpath, stamped and allow", d.name)})
				}
			}
		}
	}
}
