package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// exprString renders an expression for structural comparison (e.g. the
// self-append check). Positions are irrelevant, so a throwaway fileset
// is fine.
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}

// namedType unwraps e's type to its named form (through one pointer),
// returning nil for unnamed types.
func namedType(p *Pass, e ast.Expr) *types.Named {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return asNamed(tv.Type)
}

func asNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIs reports whether t (through one pointer) is the named type
// pkgName.typeName. Matching is by package *name*, not import path, so
// the rule applies equally to the real tree (pktpredict/internal/hw) and
// to analysistest fixtures that model the API under a short path.
func typeIs(t types.Type, pkgName, typeName string) bool {
	n := asNamed(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// recvType returns the receiver's named type of a method declaration,
// nil for plain functions.
func recvType(p *Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := p.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	return asNamed(tv.Type)
}
