package analysis

import (
	"go/ast"
	"go/types"
)

// ElemStamp machine-checks the per-element attribution contract from
// PR 7: every micro-op a flow emits must carry the element slot it
// belongs to (hw.Op.Elem). The pipeline walker guarantees this for ops
// emitted through click.Ctx inside an element's Process bracket — it
// wraps every Process call in Ctx.SetElem — but three patterns bypass
// the bracket and silently land ops in slot 0, the overhead cell:
//
//  1. raw hw.Op composite literals that never set Elem (how Synth's
//     aggressor hid under "overhead" for two PRs),
//  2. calls to a PacketSource's EmitPacket from inside a Process method
//     (the raw ops carry whatever Elem the source stamped — usually
//     zero — not the processing element's slot),
//  3. Ctx emission helpers that run outside any bracket.
//
// Each is a build error unless the enclosing function is annotated
// //dataplane:stamped <reason>, which asserts one of the two legitimate
// stories: "my caller re-stamps these ops" or "these ops are overhead by
// design (rings, recycling, source pulls — slot 0 is their home)".
var ElemStamp = &Analyzer{
	Name: "elemstamp",
	Doc: "check that micro-op emission outside the pipeline walker's SetElem " +
		"bracket is explicit: raw hw.Op literals must set Elem, raw EmitPacket " +
		"calls inside Process brackets and unbracketed Ctx emission helpers must " +
		"carry a //dataplane:stamped annotation",
	Run: runElemStamp,
}

// ctxEmitMethods are the click.Ctx calls that append micro-ops stamped
// with the Ctx's current element slot.
var ctxEmitMethods = map[string]bool{
	"Load": true, "Store": true, "LoadBytes": true, "StoreBytes": true,
	"DMABytes": true, "Compute": true,
}

func runElemStamp(p *Pass) {
	// Package hw owns the Op type; its own constructors and executors
	// are the attribution mechanism, not users of it.
	if p.Pkg.Name() == "hw" {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkElemStampFunc(p, fd)
		}
	}
}

func checkElemStampFunc(p *Pass, fd *ast.FuncDecl) {
	if rt := recvType(p, fd); rt != nil && typeIs(rt, "click", "Ctx") {
		return // Ctx's own methods are the stamping mechanism
	}
	_, stamped := hasDirective(fd.Doc, "stamped")
	isProcess := isProcessMethod(p, fd)
	bracketed := isProcess || recvHasProcess(p, fd) || callsSetElem(p, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if stamped {
				return true
			}
			if isOpLiteralMissingElem(p, n) {
				p.Reportf(n.Pos(), "raw hw.Op literal without an Elem stamp: ops built outside the click.Ctx bracket land in the overhead slot and hide the element's cost (the PR 7 Synth bug); set Elem explicitly or annotate the function //dataplane:stamped <reason>")
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case sel.Sel.Name == "EmitPacket" && isProcess && !stamped:
				if isPacketSourceEmit(p, sel) {
					p.Reportf(n.Pos(), "raw EmitPacket inside a Process bracket: the source's ops carry its own Elem stamps, not this element's slot; re-stamp them with ctx.Elem() and annotate the method //dataplane:stamped <reason>")
				}
			case ctxEmitMethods[sel.Sel.Name] && typeIs(exprType(p, sel.X), "click", "Ctx"):
				if !bracketed && !stamped {
					p.Reportf(n.Pos(), "op emission via Ctx.%s outside the pipeline walker's SetElem bracket: ops are attributed to whatever slot is current; bracket with SetElem, or annotate the function //dataplane:stamped <reason> if the caller brackets it or the ops are overhead by design", sel.Sel.Name)
				}
			}
		}
		return true
	})
}

func exprType(p *Pass, e ast.Expr) types.Type {
	tv, ok := p.Info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

// isProcessMethod reports whether fd is an element Process method: a
// method named Process whose first parameter is a *click.Ctx — the
// signature the pipeline walker brackets with SetElem.
func isProcessMethod(p *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "Process" {
		return false
	}
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	return typeIs(exprType(p, params.List[0].Type), "click", "Ctx")
}

// recvHasProcess reports whether fd is a method on a type that has a
// Process(*click.Ctx, ...) method. The pipeline walker brackets the
// element as a whole, so an element's helper methods run under the same
// SetElem bracket as its Process.
func recvHasProcess(p *Pass, fd *ast.FuncDecl) bool {
	rt := recvType(p, fd)
	if rt == nil {
		return false
	}
	for i := 0; i < rt.NumMethods(); i++ {
		m := rt.Method(i)
		if m.Name() != "Process" {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Params().Len() == 0 {
			continue
		}
		if typeIs(sig.Params().At(0).Type(), "click", "Ctx") {
			return true
		}
	}
	return false
}

// callsSetElem reports whether the function manages the bracket itself.
func callsSetElem(p *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "SetElem" {
				if typeIs(exprType(p, sel.X), "click", "Ctx") {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isOpLiteralMissingElem reports whether lit is an hw.Op composite
// literal that does not set the Elem field.
func isOpLiteralMissingElem(p *Pass, lit *ast.CompositeLit) bool {
	n := namedType(p, lit)
	if n == nil || !typeIs(n, "hw", "Op") {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	hasElem := false
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Elem" {
			hasElem = true
		}
	}
	if !hasElem {
		return false
	}
	if len(lit.Elts) > 0 {
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
			// Positional literal: every field, Elem included, is present.
			return false
		}
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Elem" {
				return false
			}
		}
	}
	return true
}

// isPacketSourceEmit reports whether sel is an EmitPacket call on a
// value whose type (or one of whose methods' signatures) matches the
// hw.PacketSource shape: func([]Op) []Op. Matching on shape rather than
// the interface keeps the rule watching concrete sources too.
func isPacketSourceEmit(p *Pass, sel *ast.SelectorExpr) bool {
	obj := p.Info.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	in, ok := sig.Params().At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	out, ok := sig.Results().At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return typeIs(in.Elem(), "hw", "Op") && typeIs(out.Elem(), "hw", "Op")
}
