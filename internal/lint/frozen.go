package lint

import (
	"go/ast"
	"go/types"
)

// This file is snapescape's other half. The alias analysis lets a
// snapshot share two kinds of live storage instead of copying it — a
// capacity-clamped prefix of an append-only slice field, and a value of
// an immutable-after-construction type — and that is only sound while
// nobody writes that storage in place. So, anywhere in the module:
//
//   - an append-only field x.F changes only by x.F = append(x.F, ...);
//     an element store, a sort or copy over it, handing it to a
//     function that mutates its argument, or rebinding it to anything
//     else is a finding;
//   - nothing reached through a value of an immutable type is stored to.
//
// A write is fine when its base — the x above — is a value the function
// is still building: a local it declared that aliases no parameter. A
// write whose base is a parameter itself is the function's contract
// ("sorts its receiver's jobs"), recorded in FuncNode.rewrites and
// judged at every call site by the same rule on the argument. Anything
// else — e.report.Jobs, with e the receiver — is live state.

// frozenBase unwraps e — the operand of an in-place write — down to the
// storage it writes: through parens, slicing, indexing and dereference,
// and through a local slice variable that was cut from such storage.
// It returns the expression that storage hangs off (x for x.F, the
// value itself for an immutable type) and a description, or ok false
// when no contract covers it.
func (m *Module) frozenBase(n *FuncNode, e ast.Expr, derived map[types.Object]frozenRef) (frozenRef, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel, ok := n.Pkg.Info.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return frozenRef{}, false
			}
			if field := sel.Obj().(*types.Var); m.appendOnly[field] {
				return frozenRef{base: x.X, what: "append-only field " + field.Name()}, true
			}
			if t := n.Pkg.TypeOf(x.X); m.isImmutable(t) {
				return frozenRef{base: x.X, what: "immutable " + namedOf(t).Obj().Name()}, true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			ref, ok := derived[n.Pkg.Info.Uses[x]]
			return ref, ok
		default:
			return frozenRef{}, false
		}
	}
}

// frozenRef is contract-covered storage: what it hangs off, and its
// name for diagnostics.
type frozenRef struct {
	base ast.Expr
	what string
}

// judgeWrite decides a write to ref: nothing to say when its base is
// being built here (a local that aliases nothing), a summary bit when
// its base is a parameter, a finding otherwise.
func (m *Module) judgeWrite(p *ModulePass, n *FuncNode, at ast.Node, ref frozenRef, how string) {
	base := ast.Unparen(ref.base)
	if u, ok := base.(*ast.UnaryExpr); ok {
		base = ast.Unparen(u.X) // &local
	}
	switch b := base.(type) {
	case *ast.CompositeLit:
		return
	case *ast.Ident:
		obj, _ := n.Pkg.Info.Uses[b].(*types.Var)
		if obj == nil {
			break
		}
		if n.Obj != nil {
			for i, param := range paramObjs(n.Obj) {
				if param == obj {
					n.rewrites = n.rewrites.with(i)
					return
				}
			}
		}
		if n.declares(obj) && m.aliases(n, b) == 0 {
			return
		}
	}
	if p != nil {
		p.Reportf(n.Pkg, at.Pos(), "%s %s of %s in %s: published snapshots share this storage, so it is never written in place "+
			"(an append-only field grows by x.F = append(x.F, ...); anything else is built fresh)",
			how, ref.what, types.ExprString(ref.base), n.Name())
	}
}

// checkFrozenWrites scans one function for in-place writes to
// contract-covered storage. With p nil it only updates n.rewrites (the
// fixpoint passes); with p set it reports.
func (m *Module) checkFrozenWrites(p *ModulePass, n *FuncNode) {
	body := n.body()
	if body == nil {
		return
	}
	m.rootSets(n)
	// Local slices cut from covered storage stand for it: rows :=
	// e.log.Rows; rows[0] = 1.
	derived := map[types.Object]frozenRef{}
	derive := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || rhs == nil {
			return
		}
		obj := n.Pkg.Info.ObjectOf(id)
		if obj == nil {
			return
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if ref, ok := m.frozenBase(n, rhs, derived); ok {
			derived[obj] = ref
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					derive(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.RangeStmt:
			// for _, run := range t.runs: run is an element of t.runs.
			if s.Value != nil {
				derive(s.Value, s.X)
			}
		}
		return true
	})
	store := func(at ast.Node, lhs ast.Expr, rhs ast.Expr) {
		lhs = ast.Unparen(lhs)
		if _, isIdent := lhs.(*ast.Ident); isIdent {
			return // rebinding a variable writes no storage
		}
		ref, ok := m.frozenBase(n, lhs, derived)
		if !ok {
			return
		}
		// x.F = append(x.F, ...) is the one write an append-only field
		// takes from anyone.
		if sel, isSel := lhs.(*ast.SelectorExpr); isSel && rhs != nil {
			if field, _ := n.Pkg.Info.ObjectOf(sel.Sel).(*types.Var); m.appendOnly[field] {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && len(call.Args) > 0 {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && n.Pkg.Info.Uses[id] == types.Universe.Lookup("append") &&
						types.ExprString(call.Args[0]) == types.ExprString(lhs) {
						return
					}
				}
				// Rebinding a field of a struct-valued local (v := *r;
				// v.F = ...) touches only the local's own header.
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); !ok || n.structLocal(id) == nil {
					m.judgeWrite(p, n, at, ref, "rebinding")
				}
				return
			}
		}
		m.judgeWrite(p, n, at, ref, "store into")
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Lhs) == len(s.Rhs) {
					rhs = s.Rhs[i]
				}
				store(s, lhs, rhs)
			}
		case *ast.IncDecStmt:
			store(s, s.X, nil)
		case *ast.CallExpr:
			m.checkFrozenCall(p, n, s, derived)
		}
		return true
	})
}

// checkFrozenCall judges the arguments a call may write through: the
// destination of copy, the first argument of the stdlib's in-place
// sorts, and whatever a module callee's summaries say it mutates
// (mod-ref, for a covered slice passed as such) or rewrites (for the
// value covered storage hangs off).
func (m *Module) checkFrozenCall(p *ModulePass, n *FuncNode, call *ast.CallExpr, derived map[types.Object]frozenRef) {
	through := func(arg ast.Expr, how string) {
		if ref, ok := m.frozenBase(n, arg, derived); ok {
			m.judgeWrite(p, n, call, ref, how)
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" &&
		n.Pkg.Info.Uses[id] == types.Universe.Lookup("copy") && len(call.Args) > 0 {
		through(call.Args[0], "copy into")
		return
	}
	callee, _ := m.resolveCallee(n.Pkg, call)
	if callee == nil {
		return
	}
	cn := m.node(callee)
	if cn == nil {
		if stdlibMutatesArg0[qualifiedName(callee)] && len(call.Args) > 0 {
			through(call.Args[0], qualifiedName(callee)+" over")
		}
		return
	}
	for i, arg := range callArgs(n, call, callee) {
		if arg == nil {
			continue
		}
		if i < len(cn.mutates) && cn.mutates[i] {
			through(arg, "passing to "+cn.Name()+", which writes,")
		}
		if cn.rewrites.has(i) {
			m.judgeWrite(p, n, call, frozenRef{base: arg, what: "storage"}, "calling "+cn.Name()+", which rewrites in place the shared")
		}
	}
}

// checkFrozen runs the write discipline over the module: the rewrites
// summaries to a fixpoint first, then one reporting pass.
func checkFrozen(p *ModulePass) {
	m := p.Mod
	if len(m.appendOnly) == 0 && len(m.immutable) == 0 {
		return
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, n := range m.nodes {
			before := n.rewrites
			m.checkFrozenWrites(nil, n)
			changed = changed || n.rewrites != before
		}
		if !changed {
			break
		}
	}
	for _, n := range m.nodes {
		m.checkFrozenWrites(p, n)
	}
}
