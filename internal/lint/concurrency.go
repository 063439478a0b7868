package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
)

// containsLock reports whether a value of type t holds (directly or
// through nested struct fields or arrays) a sync primitive that must
// not be copied after first use.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
				return true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// lockName renders a lock-containing type for diagnostics.
func lockName(p *Pass, t types.Type) string {
	return types.TypeString(t, types.RelativeTo(p.Pkg.Types))
}

// analyzerLockCopy detects by-value copies of types containing
// sync.Mutex, sync.WaitGroup, or the other non-copyable sync
// primitives: value receivers, value parameters, value results, plain
// assignments, and ranging by value over slices of such types. Copying
// the lock forks its state, so the copy guards nothing.
var analyzerLockCopy = &Analyzer{
	Name: "lockcopy",
	Doc: "detect by-value copies of types containing sync.Mutex/WaitGroup (receivers, params, " +
		"results, assignments, range values); a copied lock guards nothing — pass a pointer",
	Run: func(p *Pass) {
		checkField := func(kind string, fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				t := p.Pkg.TypeOf(f.Type)
				if t == nil {
					continue
				}
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					continue
				}
				if containsLock(t, map[types.Type]bool{}) {
					p.Reportf(f.Type.Pos(), "%s copies lock: %s contains a sync primitive; use a pointer", kind, lockName(p, t))
				}
			}
		}
		inspectAll(p, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncDecl:
				checkField("receiver", s.Recv)
				checkField("parameter", s.Type.Params)
				checkField("result", s.Type.Results)
			case *ast.FuncLit:
				checkField("parameter", s.Type.Params)
				checkField("result", s.Type.Results)
			case *ast.AssignStmt:
				for i, rhs := range s.Rhs {
					if len(s.Lhs) != len(s.Rhs) {
						break
					}
					switch rhs.(type) {
					case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					default:
						continue // composite literals etc. construct fresh values
					}
					t := p.Pkg.TypeOf(rhs)
					if t != nil && containsLock(t, map[types.Type]bool{}) {
						p.Reportf(s.Rhs[i].Pos(), "assignment copies lock: %s contains a sync primitive", lockName(p, t))
					}
				}
			case *ast.RangeStmt:
				if s.Value == nil {
					return true
				}
				t := p.Pkg.TypeOf(s.Value)
				if t != nil && containsLock(t, map[types.Type]bool{}) {
					p.Reportf(s.Value.Pos(), "range value copies lock: %s contains a sync primitive; range by index", lockName(p, t))
				}
			}
			return true
		})
	},
}

// exprString renders an expression for receiver matching.
func exprString(p *Pass, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, p.Pkg.Fset, e)
	return buf.String()
}

// syncLockCall matches a statement of the form `x.Lock()` / `x.RLock()`
// where the method is sync's, returning the receiver rendering and the
// matching unlock method name.
func syncLockCall(p *Pass, stmt ast.Stmt) (recv, unlock string, pos ast.Node) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", "", nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", nil
	}
	obj, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", nil
	}
	switch obj.Name() {
	case "Lock":
		return exprString(p, sel.X), "Unlock", es
	case "RLock":
		return exprString(p, sel.X), "RUnlock", es
	}
	return "", "", nil
}

// isDeferredUnlock matches `defer x.Unlock()` for the given receiver
// rendering and unlock method.
func isDeferredUnlock(p *Pass, stmt ast.Stmt, recv, unlock string) bool {
	ds, ok := stmt.(*ast.DeferStmt)
	if !ok {
		return false
	}
	sel, ok := ds.Call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == unlock && exprString(p, sel.X) == recv
}

// countReturns counts return statements in a body, not descending into
// nested function literals.
func countReturns(body *ast.BlockStmt) int {
	n := 0
	ast.Inspect(body, func(node ast.Node) bool {
		switch node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			n++
		}
		return true
	})
	return n
}

// analyzerDeferUnlock requires `defer mu.Unlock()` immediately after
// `mu.Lock()` in functions with more than one return statement: with
// multiple exits, a manually paired Unlock is one early return away
// from a deadlock.
var analyzerDeferUnlock = &Analyzer{
	Name: "deferunlock",
	Doc: "require `defer mu.Unlock()` on the line after `mu.Lock()` in multi-return functions; " +
		"a manual unlock across several exits is one early return away from a deadlock",
	Run: func(p *Pass) {
		checkBody := func(body *ast.BlockStmt) {
			if body == nil || countReturns(body) < 2 {
				return
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // checked separately with its own return count
				}
				block, ok := n.(*ast.BlockStmt)
				if !ok {
					return true
				}
				for i, stmt := range block.List {
					recv, unlock, at := syncLockCall(p, stmt)
					if at == nil {
						continue
					}
					if i+1 < len(block.List) && isDeferredUnlock(p, block.List[i+1], recv, unlock) {
						continue
					}
					p.Reportf(at.Pos(), "%s.Lock() in a multi-return function without an immediate `defer %s.%s()`",
						recv, recv, unlock)
				}
				return true
			})
		}
		inspectAll(p, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				checkBody(fn.Body)
			case *ast.FuncLit:
				checkBody(fn.Body)
			}
			return true
		})
	},
}
