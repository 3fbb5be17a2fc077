package analysis

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc flags allocation sources inside functions annotated
// //dataplane:hotpath. The dataplane's worker loops, ring operations,
// hand-off paths, metric cells and element Process methods must run
// allocation-free (the generalized BitTorrentBlocker 0 allocs/op
// discipline): a single escape to the heap inside a packet loop turns
// into GC pressure at millions of packets per second, and — worse for
// this repo's purpose — into cycles the performance model never charged.
//
// The check is syntactic and type-based, not a full escape analysis: it
// flags the constructs that are heap allocations (or become ones under
// trivial escape), and the amortized buffer-reuse idiom x = append(x, ...)
// is the one growth pattern it admits, because the dynamic
// TestHotPathAllocs gate proves it settles to zero allocations per
// operation in steady state.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "check that //dataplane:hotpath functions are allocation-free: " +
		"no make/new, no escaping or slice/map composite literals, no growing " +
		"appends (except self-append buffer reuse), no map writes, no capturing " +
		"closures or go statements, no interface boxing, no fmt or string building",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := hasDirective(fd.Doc, "hotpath"); !ok {
				continue
			}
			checkHotPath(p, fd)
		}
	}
}

// walkWithParents visits every node under root with its ancestor chain
// (nearest last).
func walkWithParents(root ast.Node, fn func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

func checkHotPath(p *Pass, fd *ast.FuncDecl) {
	walkWithParents(fd.Body, func(n ast.Node, parents []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, n)
		case *ast.CompositeLit:
			checkHotCompositeLit(p, n, parents)
		case *ast.AssignStmt:
			checkHotAssign(p, n)
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "go statement in hot path: spawning a goroutine allocates")
		case *ast.FuncLit:
			checkHotFuncLit(p, n, fd)
		case *ast.BinaryExpr:
			checkHotStringConcat(p, n, parents)
		case *ast.ReturnStmt:
			checkHotReturn(p, n, fd, parents)
		case *ast.ValueSpec:
			checkHotValueSpec(p, n)
		}
	})
}

func checkHotCall(p *Pass, call *ast.CallExpr) {
	// Builtins: make and new always allocate; append may grow.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				p.Reportf(call.Pos(), "make in hot path allocates; hoist the buffer to setup time")
			case "new":
				p.Reportf(call.Pos(), "new in hot path allocates; hoist the object to setup time")
			}
			return
		}
	}
	// Conversions between strings and byte/rune slices copy.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		if src, ok := p.Info.Types[call.Args[0]]; ok && stringConversionAllocates(dst, src.Type) {
			p.Reportf(call.Pos(), "string conversion in hot path copies its bytes; keep one representation")
		}
		return
	}
	// Calls into fmt build interfaces and buffers on every call.
	if obj := calleeObject(p, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		p.Reportf(call.Pos(), "fmt.%s in hot path allocates; format off the hot path or record raw values", obj.Name())
		return
	}
	// Concrete arguments passed as interface parameters are boxed.
	sig := calleeSignature(p, call)
	if sig == nil || call.Ellipsis.IsValid() {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if boxes(p, pt, arg) {
			p.Reportf(arg.Pos(), "argument is boxed into interface %s; interface conversion of a non-pointer value allocates", pt.String())
		}
	}
}

// calleeObject resolves the called function or method object, nil for
// indirect calls through expressions.
func calleeObject(p *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// calleeSignature returns the call's signature, nil for builtins and
// conversions.
func calleeSignature(p *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func checkHotCompositeLit(p *Pass, lit *ast.CompositeLit, parents []ast.Node) {
	if len(parents) > 0 {
		if u, ok := parents[len(parents)-1].(*ast.UnaryExpr); ok && u.Op.String() == "&" {
			p.Reportf(lit.Pos(), "&composite literal in hot path escapes to the heap; reuse a preallocated object")
			return
		}
		// Inner literals of an already-flagged slice/map literal would
		// double-report; only the outermost backing store allocates.
		if _, ok := parents[len(parents)-1].(*ast.CompositeLit); ok {
			return
		}
	}
	tv, ok := p.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		p.Reportf(lit.Pos(), "slice literal in hot path allocates its backing array")
	case *types.Map:
		p.Reportf(lit.Pos(), "map literal in hot path allocates")
	}
}

func checkHotAssign(p *Pass, as *ast.AssignStmt) {
	// Map writes may grow or rehash the table.
	for _, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if tv, ok := p.Info.Types[ix.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					p.Reportf(lhs.Pos(), "map write in hot path may allocate (growth, rehash); use a preallocated dense structure or annotate the intended exception")
				}
			}
		}
	}
	// Growing appends, except the x = append(x, ...) reuse idiom.
	if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && isBuiltin(p, call, "append") {
			if !selfAppend(as.Lhs[0], call) {
				p.Reportf(call.Pos(), "append into a different slice may grow on every call; reuse one buffer (x = append(x, ...)) so growth amortizes to zero")
			}
			return
		}
	}
	// Boxing through plain assignment to an interface-typed location.
	if as.Tok.String() == "=" && len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			if lt, ok := p.Info.Types[as.Lhs[i]]; ok && boxes(p, lt.Type, as.Rhs[i]) {
				p.Reportf(as.Rhs[i].Pos(), "value is boxed into interface %s on assignment", lt.Type.String())
			}
		}
	}
	// Appends whose results are discarded or multi-assigned are growth.
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		for _, rhs := range as.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(p, call, "append") {
				p.Reportf(call.Pos(), "append result not reassigned to its source slice; growth never amortizes")
			}
		}
	}
}

// selfAppend reports whether call is append(dst, ...) growing dst itself
// (or dst[:0], the reset-and-refill idiom) assigned back to dst.
func selfAppend(lhs ast.Expr, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	first := ast.Unparen(call.Args[0])
	if sl, ok := first.(*ast.SliceExpr); ok && sl.Low == nil && sl.High != nil {
		// append(x[:0], ...) and append(x[:n], ...) reuse x's storage.
		first = ast.Unparen(sl.X)
	}
	return exprString(lhs) == exprString(first)
}

func isBuiltin(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func checkHotFuncLit(p *Pass, fl *ast.FuncLit, fd *ast.FuncDecl) {
	captured := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// A variable declared inside the enclosing function but outside
		// this literal is captured by reference.
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < fl.Pos() || v.Pos() >= fl.End()) {
			captured = v.Name()
		}
		return true
	})
	if captured != "" {
		p.Reportf(fl.Pos(), "closure captures %q by reference: the variable and the closure escape to the heap", captured)
	}
}

func checkHotStringConcat(p *Pass, be *ast.BinaryExpr, parents []ast.Node) {
	if be.Op.String() != "+" {
		return
	}
	tv, ok := p.Info.Types[be]
	if !ok || tv.Value != nil { // constant-folded concatenation is free
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return
	}
	// Report only the outermost + of a chain.
	if len(parents) > 0 {
		if pb, ok := parents[len(parents)-1].(*ast.BinaryExpr); ok && pb.Op.String() == "+" {
			if ptv, ok := p.Info.Types[pb]; ok && ptv.Value == nil {
				if b, ok := ptv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					return
				}
			}
		}
	}
	p.Reportf(be.Pos(), "string concatenation in hot path allocates; precompute the string or log indices instead")
}

func checkHotReturn(p *Pass, ret *ast.ReturnStmt, fd *ast.FuncDecl, parents []ast.Node) {
	sig := enclosingSignature(p, fd, parents)
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		if boxes(p, sig.Results().At(i).Type(), res) {
			p.Reportf(res.Pos(), "return value is boxed into interface %s", sig.Results().At(i).Type().String())
		}
	}
}

// enclosingSignature finds the signature governing a return statement:
// the innermost func literal among parents, else the declaration.
func enclosingSignature(p *Pass, fd *ast.FuncDecl, parents []ast.Node) *types.Signature {
	for i := len(parents) - 1; i >= 0; i-- {
		if fl, ok := parents[i].(*ast.FuncLit); ok {
			if tv, ok := p.Info.Types[fl]; ok {
				sig, _ := tv.Type.Underlying().(*types.Signature)
				return sig
			}
			return nil
		}
	}
	if obj, ok := p.Info.Defs[fd.Name]; ok && obj != nil {
		sig, _ := obj.Type().Underlying().(*types.Signature)
		return sig
	}
	return nil
}

func checkHotValueSpec(p *Pass, vs *ast.ValueSpec) {
	if vs.Type == nil {
		return
	}
	tv, ok := p.Info.Types[vs.Type]
	if !ok {
		return
	}
	for _, v := range vs.Values {
		if boxes(p, tv.Type, v) {
			p.Reportf(v.Pos(), "value is boxed into interface %s at declaration", tv.Type.String())
		}
	}
}

// boxes reports whether assigning src into a location of type dst is an
// allocating interface conversion: dst is an interface, src's type is
// concrete, and src is not pointer-shaped (pointers, channels, maps and
// funcs fit an interface word directly).
func boxes(p *Pass, dst types.Type, src ast.Expr) bool {
	if dst == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := p.Info.Types[src]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	st := tv.Type
	if st == types.Typ[types.Invalid] {
		return false
	}
	if _, ok := st.Underlying().(*types.Interface); ok {
		return false
	}
	return !pointerShaped(st)
}

func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// stringConversionAllocates reports whether a conversion from src to dst
// copies string/slice bytes.
func stringConversionAllocates(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
