package analysis

import (
	"go/ast"
	"go/types"
)

// Frozenwrite enforces immutability of types annotated //vebo:frozen
// (epoch captures, published views, COW ordering results — DESIGN.md
// §5–§5b): outside the type's builders, both direct field writes and
// mutations of data reached through its fields (slice/map element stores,
// append-into, delete, copy-into) are flagged, because frozen values are
// shared across goroutines by pointer publication and any in-place
// mutation races with readers on other epochs.
//
// Allowed contexts:
//   - functions whose signature returns (a pointer to) the frozen type —
//     builders construct before publication;
//   - func literals passed to once.Do where once is a sync.Once field of
//     the same frozen type — the lazy-build idiom used by View caches.
var Frozenwrite = &Analyzer{
	Name: "frozenwrite",
	Doc:  "types marked //vebo:frozen may only be mutated by their builders",
	Run:  runFrozenwrite,
}

func runFrozenwrite(pass *Pass) error {
	for _, f := range pass.Files {
		pm := parentsOf(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkFrozenTarget(pass, pm, lhs, true)
				}
			case *ast.IncDecStmt:
				checkFrozenTarget(pass, pm, st.X, true)
			case *ast.CallExpr:
				// Builtins that mutate their first argument's contents in
				// place — an aliased mutation even when the argument is the
				// field itself.
				if id, ok := st.Fun.(*ast.Ident); ok && len(st.Args) > 0 {
					if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
						switch b.Name() {
						case "copy", "delete", "clear":
							checkFrozenTarget(pass, pm, st.Args[0], false)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkFrozenTarget walks the access path of a mutation target (x.f,
// x.f[i], *x.f, x.a.b[i:j]) and reports if any selector along it reaches a
// field of a frozen type outside an allowed context. When direct is true
// the outermost selector is a plain field write; deeper selectors (and
// builtin-mutated targets) are aliased mutations of data the frozen value
// owns.
func checkFrozenTarget(pass *Pass, pm parentMap, target ast.Expr, direct bool) {
	for e := target; ; {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e, direct = x.X, false
		case *ast.SliceExpr:
			e, direct = x.X, false
		case *ast.StarExpr:
			e, direct = x.X, false
		case *ast.SelectorExpr:
			fld, owner := fieldOf(pass.Info, x)
			if fld != nil {
				if pkg, typ, ok := namedKey(owner); ok {
					if pass.Ann.Frozen(pkg, typ) &&
						!frozenWriteAllowed(pass, pm, x, pkg, typ) {
						if direct {
							pass.Reportf(x.Pos(),
								"write to field %s of frozen type %s outside its builders (//vebo:frozen)",
								fld.Name(), typ)
						} else {
							pass.Reportf(x.Pos(),
								"mutation through field %s aliases data of frozen type %s (//vebo:frozen)",
								fld.Name(), typ)
						}
						return // one report per target
					}
				}
			}
			e, direct = x.X, false // anything deeper aliases through x
		default:
			return
		}
	}
}

func frozenWriteAllowed(pass *Pass, pm parentMap, n ast.Node, pkg, typ string) bool {
	for _, fn := range pm.enclosingFuncs(n) {
		if returnsType(signatureOf(pass.Info, fn), pkg, typ) {
			return true
		}
	}
	return inOnceDoOf(pm, pass.Info, n, pkg, typ)
}
