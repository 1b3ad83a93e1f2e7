package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
)

// derefNamed unwraps aliases and at most one pointer and returns the named
// type underneath, or nil.
func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// namedIs reports whether n is the type pkgPath.name.
func namedIs(n *types.Named, pkgPath, name string) bool {
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// namedKey splits a named type into (package path, type name); ok is false
// for builtins and universe types.
func namedKey(n *types.Named) (pkgPath, name string, ok bool) {
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return "", "", false
	}
	return n.Obj().Pkg().Path(), n.Obj().Name(), true
}

// fieldOf resolves sel to a struct field access and returns the field
// object and the named type of the struct that declares it (the deepest
// embedded owner). Non-field selections (methods, qualified identifiers)
// return (nil, nil).
func fieldOf(info *types.Info, sel *ast.SelectorExpr) (*types.Var, *types.Named) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, nil
	}
	fld, ok := s.Obj().(*types.Var)
	if !ok {
		return nil, nil
	}
	// Walk the selection's index path to the struct that actually declares
	// the field, so embedded promotions attribute to the right owner.
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := types.Unalias(deref(t)).Underlying().(*types.Struct)
		if !ok {
			return fld, derefNamed(s.Recv())
		}
		t = st.Field(i).Type()
	}
	return fld, derefNamed(t)
}

func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// parentMap records each node's syntactic parent within one file.
type parentMap map[ast.Node]ast.Node

func parentsOf(f *ast.File) parentMap {
	pm := make(parentMap)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			pm[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return pm
}

// enclosingFuncs returns every function literal and declaration containing
// n, innermost first.
func (pm parentMap) enclosingFuncs(n ast.Node) []ast.Node {
	var out []ast.Node
	for cur := pm[n]; cur != nil; cur = pm[cur] {
		switch cur.(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			out = append(out, cur)
		}
	}
	return out
}

// signatureOf returns the type-checked signature of a FuncDecl or FuncLit.
func signatureOf(info *types.Info, fn ast.Node) *types.Signature {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
			if sig, ok := obj.Type().(*types.Signature); ok {
				return sig
			}
		}
	case *ast.FuncLit:
		if tv, ok := info.Types[fn]; ok {
			if sig, ok := tv.Type.(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

// returnsType reports whether any result of sig is (a pointer to) the type
// pkgPath.name — the "builder by return" test.
func returnsType(sig *types.Signature, pkgPath, name string) bool {
	if sig == nil {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if namedIs(derefNamed(res.At(i).Type()), pkgPath, name) {
			return true
		}
	}
	return false
}

// inOnceDoOf reports whether n sits inside a func literal passed to
// once.Do(...) where once is a sync.Once field of the type pkgPath.name —
// the lazy-build exemption for frozen types.
func inOnceDoOf(pm parentMap, info *types.Info, n ast.Node, pkgPath, name string) bool {
	for cur := pm[n]; cur != nil; cur = pm[cur] {
		lit, ok := cur.(*ast.FuncLit)
		if !ok {
			continue
		}
		call, ok := pm[lit].(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || call.Args[0] != ast.Expr(lit) {
			continue
		}
		doSel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || doSel.Sel.Name != "Do" {
			continue
		}
		onceSel, ok := doSel.X.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		fld, owner := fieldOf(info, onceSel)
		if fld == nil || !namedIs(derefNamed(fld.Type()), "sync", "Once") {
			continue
		}
		if namedIs(owner, pkgPath, name) {
			return true
		}
	}
	return false
}

// exprKey renders a stable identity for simple receiver chains
// ("a", "t.inner"); expressions it cannot canonicalize get a position-based
// key so they never alias anything else.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	default:
		return fmt.Sprintf("@%d", e.Pos())
	}
}

// stringConst returns the compile-time string value of e, if it has one.
func stringConst(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	if tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
