package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes the two interprocedural summaries the dataflow
// analyzers lean on:
//
//   - mod-ref: which of a function's parameters (receiver first) it
//     may mutate through — field stores, indexed stores, builtin
//     delete/copy, and calls to other mutating functions, with
//     range-variable aliasing so `for _, st := range e.active
//     { st.X = ... }` counts as mutating e;
//   - alias-ret: whether a function's results may alias one of its
//     parameters, so `return e.report` taints and `return
//     e.report.Clone()` does not.
//
// Both are flow-insensitive may-analyses iterated to fixpoint over the
// module. Non-module (stdlib) callees are assumed pure except for a
// small table (sort.*, and any method call on a tracked value whose
// name is not a known read-only accessor).

// paramSet is a small bitmask over receiver+parameters (index 0 = the
// receiver when present). 64 parameters is far beyond anything real.
type paramSet uint64

func (s paramSet) has(i int) bool      { return i < 64 && s&(1<<uint(i)) != 0 }
func (s paramSet) with(i int) paramSet { return s | 1<<uint(min(i, 63)) }

// containsRef reports whether values of t carry references through
// which shared state could be reached or mutated: pointers, slices,
// maps, chans, funcs, interfaces, and aggregates containing them.
// Strings are immutable and exempt.
func containsRef(t types.Type) bool {
	return containsRefSeen(t, map[types.Type]bool{})
}

func containsRefSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsRefSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsRefSeen(u.Elem(), seen)
	}
	return false
}

// paramObjs returns the function's receiver (if any) followed by its
// parameters, matching the paramSet index convention.
func paramObjs(fn *types.Func) []*types.Var {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// pureMethods are non-module method names assumed not to mutate their
// receiver; any other non-module method call on a tracked value is
// conservatively treated as a mutation.
var pureMethods = map[string]bool{
	"Load": true, "String": true, "Error": true, "Len": true, "Cap": true,
	"Format": true, "MarshalJSON": true, "Sum64": true, "Size": true,
}

// freshReturn names the module's deep-copy idiom: a method named like
// a clone is trusted to return fresh storage aliasing nothing its
// receiver owns. The alias analysis cannot see through the canonical
// copy-and-reallocate shape (c := *r; c.F = append([]T(nil), r.F...);
// return &c) without per-field kill tracking, so the trust is by name
// and the snapescape corpus pins the contract; a shallow "Clone" is
// the accepted soundness gap.
var freshReturn = map[string]bool{"Clone": true, "Copy": true, "DeepCopy": true}

// stdlibMutatesArg0 lists non-module functions known to mutate their
// first argument.
var stdlibMutatesArg0 = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true, "sort.Strings": true, "sort.Ints": true,
	"sort.Float64s": true, "slices.Sort": true, "slices.SortFunc": true,
	"slices.Reverse": true,
}

func qualifiedName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// rootSets computes, per local object of n, the set of parameter
// indices the object may alias, flowing through simple assignments,
// range statements, address-taking, composite literals, and calls with
// alias-returning summaries. Results are cached on the node.
func (m *Module) rootSets(n *FuncNode) map[types.Object]paramSet {
	if n.roots != nil {
		return n.roots
	}
	roots := map[types.Object]paramSet{}
	n.roots = roots
	if n.Obj != nil {
		for i, v := range paramObjs(n.Obj) {
			roots[v] = roots[v].with(i)
		}
	}
	body := n.body()
	if body == nil {
		return roots
	}
	// Iterate to a local fixpoint: later statements can extend chains
	// established by earlier ones and vice versa.
	for iter := 0; iter < 8; iter++ {
		changed := false
		ast.Inspect(body, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := n.Pkg.Info.Defs[id]
					if obj == nil {
						obj = n.Pkg.Info.Uses[id]
					}
					if obj == nil || !containsRef(obj.Type()) {
						continue
					}
					if add := m.aliases(n, s.Rhs[i]); add&^roots[obj] != 0 {
						roots[obj] |= add
						changed = true
					}
				}
			case *ast.RangeStmt:
				src := m.aliases(n, s.X)
				if src == 0 {
					return true
				}
				for _, v := range []ast.Expr{s.Key, s.Value} {
					id, ok := v.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := n.Pkg.Info.Defs[id]
					if obj == nil || !containsRef(obj.Type()) {
						continue
					}
					if src&^roots[obj] != 0 {
						roots[obj] |= src
						changed = true
					}
				}
			case *ast.GenDecl:
				if s.Tok != token.VAR {
					return true
				}
				for _, spec := range s.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != len(vs.Names) {
						continue
					}
					for i, name := range vs.Names {
						obj := n.Pkg.Info.Defs[name]
						if obj == nil || !containsRef(obj.Type()) {
							continue
						}
						if add := m.aliases(n, vs.Values[i]); add&^roots[obj] != 0 {
							roots[obj] |= add
							changed = true
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return roots
}

// fieldKills finds the struct-valued locals whose fields the body
// overwrites before it can return — `v := *r; v.F = ...; return &v`,
// the shape of a view or clone constructor — and with what. A field
// counts when some assignment to it is a statement of the function's
// own block ahead of every return and its value does not mention v;
// every other assignment to that field, at any depth, then joins the
// list, so the field's alias set is the union of all it is ever given
// rather than of what v was copied from. Taking &v before the
// overwrite and publishing that is the accepted soundness gap.
func (n *FuncNode) fieldKills() map[types.Object]map[*types.Var][]ast.Expr {
	if n.kills != nil {
		return n.kills
	}
	n.kills = map[types.Object]map[*types.Var][]ast.Expr{}
	body := n.body()
	if body == nil {
		return n.kills
	}
	// target resolves v.F on a struct-valued local.
	target := func(lhs ast.Expr) (types.Object, *types.Var) {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return nil, nil
		}
		v := n.structLocal(id)
		if v == nil {
			return nil, nil
		}
		field, _ := n.Pkg.Info.ObjectOf(sel.Sel).(*types.Var)
		return v, field
	}
	mentions := func(e ast.Expr, obj types.Object) bool {
		found := false
		ast.Inspect(e, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && n.Pkg.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	returns := func(stmt ast.Stmt) bool {
		found := false
		ast.Inspect(stmt, func(x ast.Node) bool {
			switch x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
			}
			return !found
		})
		return found
	}
	for _, stmt := range body.List {
		if returns(stmt) {
			break
		}
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			continue
		}
		for i, lhs := range as.Lhs {
			if v, field := target(lhs); field != nil && !mentions(as.Rhs[i], v) {
				if n.kills[v] == nil {
					n.kills[v] = map[*types.Var][]ast.Expr{}
				}
				n.kills[v][field] = nil // values collected below
			}
		}
	}
	if len(n.kills) == 0 {
		return n.kills
	}
	ast.Inspect(body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			v, field := target(lhs)
			if _, killed := n.kills[v][field]; killed {
				n.kills[v][field] = append(n.kills[v][field], as.Rhs[i])
			}
		}
		return true
	})
	return n.kills
}

// structLocal resolves id to a struct-valued (not pointer) variable the
// function's own body declares — storage nothing outside it names — or
// nil.
func (n *FuncNode) structLocal(id *ast.Ident) *types.Var {
	v, ok := n.Pkg.Info.Uses[id].(*types.Var)
	if !ok || !n.declares(v) {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Struct); !ok {
		return nil
	}
	return v
}

// declares reports whether v is a variable of the function's body: not
// a parameter, a field, or an enclosing scope's.
func (n *FuncNode) declares(v *types.Var) bool {
	body := n.body()
	return body != nil && v.Pos() >= body.Pos() && v.Pos() < body.End()
}

// unionAliases is aliases over a list of expressions.
func (m *Module) unionAliases(n *FuncNode, exprs []ast.Expr) paramSet {
	var s paramSet
	for _, e := range exprs {
		s |= m.aliases(n, e)
	}
	return s
}

// killedAliases is aliases for a struct-valued local with overwritten
// fields: per reference-bearing field, what it was overwritten with, or
// what the local was copied from.
func (m *Module) killedAliases(n *FuncNode, obj types.Object, kills map[*types.Var][]ast.Expr) paramSet {
	st := obj.Type().Underlying().(*types.Struct)
	var s paramSet
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !containsRef(f.Type()) {
			continue
		}
		if values, killed := kills[f]; killed {
			s |= m.killedField(n, obj, f, values)
		} else {
			s |= n.roots[obj]
		}
	}
	return s
}

// killedField is the union of aliases over the values a killed field
// v.F is ever given. A value that reads v.F itself — v.F = append(v.F,
// x) — adds only what else it holds: v.F's own set is the one being
// computed, so that reference reads as empty instead of recursing.
func (m *Module) killedField(n *FuncNode, v types.Object, f *types.Var, values []ast.Expr) paramSet {
	k := localField{v, f}
	if n.resolving[k] {
		return 0
	}
	if n.resolving == nil {
		n.resolving = map[localField]bool{}
	}
	n.resolving[k] = true
	defer delete(n.resolving, k)
	return m.unionAliases(n, values)
}

// localField is field F of a struct-valued local v.
type localField struct {
	v types.Object
	f *types.Var
}

// clampedPrefix reports whether e is x.F[lo:n:n] over an append-only
// field F: a view no append through either side can reach into.
func (m *Module) clampedPrefix(n *FuncNode, e *ast.SliceExpr) bool {
	if !e.Slice3 || e.High == nil || e.Max == nil || types.ExprString(e.High) != types.ExprString(e.Max) {
		return false
	}
	sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	field, _ := n.Pkg.Info.ObjectOf(sel.Sel).(*types.Var)
	return field != nil && m.appendOnly[field]
}

// isImmutable reports whether t (through one pointer) is one of the
// module's immutable-after-construction types.
func (m *Module) isImmutable(t types.Type) bool {
	named := namedOf(t)
	return named != nil && m.immutable[named.Origin()]
}

// body returns the node's statement body.
func (n *FuncNode) body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// aliases computes which parameters the value of e may alias (share
// mutable backing store with), relative to node n's root sets.
func (m *Module) aliases(n *FuncNode, e ast.Expr) paramSet {
	if m.isImmutable(n.Pkg.TypeOf(e)) {
		return 0 // shared by contract: nothing behind it is ever written
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := n.Pkg.Info.Uses[x]
		if obj == nil {
			obj = n.Pkg.Info.Defs[x]
		}
		if obj == nil {
			return 0
		}
		if kills, ok := n.fieldKills()[obj]; ok {
			return m.killedAliases(n, obj, kills)
		}
		return n.roots[obj]
	case *ast.SelectorExpr:
		if sel, ok := n.Pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if !containsRef(sel.Type()) {
				return 0
			}
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				obj, field := n.Pkg.Info.Uses[id], sel.Obj().(*types.Var)
				if values, killed := n.fieldKills()[obj][field]; killed {
					return m.killedField(n, obj, field, values)
				}
			}
			return m.aliases(n, x.X)
		}
		return 0 // package member or method value
	case *ast.IndexExpr:
		if !containsRef(n.Pkg.TypeOf(x)) {
			return 0
		}
		return m.aliases(n, x.X)
	case *ast.SliceExpr:
		if m.clampedPrefix(n, x) {
			return 0
		}
		return m.aliases(n, x.X)
	case *ast.StarExpr:
		if !containsRef(n.Pkg.TypeOf(x)) {
			return 0
		}
		return m.aliases(n, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return m.aliases(n, x.X)
		}
		return 0
	case *ast.TypeAssertExpr:
		return m.aliases(n, x.X)
	case *ast.CompositeLit:
		var s paramSet
		for _, elt := range x.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			s |= m.aliases(n, v)
		}
		return s
	case *ast.CallExpr:
		// Conversions pass the value through.
		if tv, ok := n.Pkg.Info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) == 1 && containsRef(n.Pkg.TypeOf(x)) {
				return m.aliases(n, x.Args[0])
			}
			return 0
		}
		callee, _ := m.resolveCallee(n.Pkg, x)
		if callee == nil {
			// append returns its first argument's backing array and
			// holds references to every appended element — which, for
			// a spread `src...` of reference-free elements, are copies
			// that share nothing with src.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				var s paramSet
				for i, a := range x.Args {
					if i > 0 && x.Ellipsis.IsValid() {
						if sl, ok := n.Pkg.TypeOf(a).Underlying().(*types.Slice); ok && !containsRef(sl.Elem()) {
							continue
						}
					}
					s |= m.aliases(n, a)
				}
				return s
			}
			return 0
		}
		if freshReturn[callee.Name()] && m.node(callee) != nil {
			return 0
		}
		cn := m.node(callee)
		if cn == nil || cn.aliasRet == 0 {
			return 0
		}
		var s paramSet
		for i, arg := range callArgs(n, x, callee) {
			if cn.aliasRet.has(i) {
				s |= m.aliases(n, arg)
			}
		}
		return s
	}
	return 0
}

// callArgs lines a call's argument expressions up with the callee's
// paramObjs convention: the receiver expression first for method
// calls, then the ordinary arguments. Variadic overflow arguments all
// map to the final parameter slot (handled by index clamping in
// paramSet).
func callArgs(n *FuncNode, call *ast.CallExpr, callee *types.Func) []ast.Expr {
	var out []ast.Expr
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := n.Pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				out = append(out, sel.X)
			}
		}
		if len(out) == 0 {
			out = append(out, nil) // method value/expr call: receiver unknown
		}
	}
	out = append(out, call.Args...)
	// Clamp variadic overflow onto the last declared parameter index.
	if sig != nil {
		max := sig.Params().Len()
		if sig.Recv() != nil {
			max++
		}
		if max > 0 && len(out) > max {
			out = out[:max]
		}
	}
	return out
}

// argAliases is aliases over a possibly-nil arg from callArgs.
func (m *Module) argAliases(n *FuncNode, e ast.Expr) paramSet {
	if e == nil {
		return 0
	}
	return m.aliases(n, e)
}

// computeSummaries runs the alias-ret and mod-ref fixpoints over every
// declared node in the module.
func computeSummaries(m *Module) {
	for _, n := range m.nodes {
		if n.Obj != nil {
			n.mutates = make([]bool, len(paramObjs(n.Obj)))
		}
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, n := range m.nodes {
			if n.Obj == nil {
				continue
			}
			// Invalidate the root cache: callee summaries may have
			// grown since the last iteration.
			n.roots = nil
			if m.updateAliasRet(n) {
				changed = true
			}
			if m.updateModRef(n) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// updateAliasRet rescans n's return statements; true if the summary grew.
func (m *Module) updateAliasRet(n *FuncNode) bool {
	body := n.body()
	if body == nil {
		return false
	}
	m.rootSets(n)
	var s paramSet
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // a literal's returns are not n's returns
		}
		if ret, ok := x.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				if containsRef(n.Pkg.TypeOf(r)) {
					s |= m.aliases(n, r)
				}
			}
		}
		return true
	})
	if s&^n.aliasRet != 0 {
		n.aliasRet |= s
		return true
	}
	return false
}

// mutationTargets returns the alias set an assignment through lvalue
// writes into: nonzero only when the store goes through a reference
// (selector, index, or pointer dereference), not a plain rebind.
func (m *Module) mutationTargets(n *FuncNode, lvalue ast.Expr) paramSet {
	switch x := ast.Unparen(lvalue).(type) {
	case *ast.SelectorExpr:
		if sel, ok := n.Pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return m.aliases(n, x.X)
		}
		return 0
	case *ast.IndexExpr:
		return m.aliases(n, x.X)
	case *ast.StarExpr:
		return m.aliases(n, x.X)
	}
	return 0
}

// updateModRef rescans n's body for mutations; true if the summary grew.
func (m *Module) updateModRef(n *FuncNode) bool {
	body := n.body()
	if body == nil || n.mutates == nil {
		return false
	}
	m.rootSets(n)
	var hit paramSet
	record := func(s paramSet) { hit |= s }
	ast.Inspect(body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				record(m.mutationTargets(n, lhs))
			}
		case *ast.IncDecStmt:
			record(m.mutationTargets(n, s.X))
		case *ast.CallExpr:
			record(m.callMutations(n, s))
		}
		return true
	})
	changed := false
	for i := range n.mutates {
		if !n.mutates[i] && hit.has(i) {
			n.mutates[i] = true
			changed = true
		}
	}
	return changed
}

// callMutations returns which of n's parameters a call may mutate,
// through builtin delete/copy, the stdlib mutator table, module callee
// summaries, and the conservative non-module-method rule.
func (m *Module) callMutations(n *FuncNode, call *ast.CallExpr) paramSet {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "delete", "copy":
			if n.Pkg.Info.Uses[id] == nil && len(call.Args) > 0 { // builtin
				return m.aliases(n, call.Args[0])
			}
		}
	}
	callee, _ := m.resolveCallee(n.Pkg, call)
	if callee == nil {
		return 0
	}
	if cn := m.node(callee); cn != nil {
		var s paramSet
		args := callArgs(n, call, callee)
		for i, arg := range args {
			if i < len(cn.mutates) && cn.mutates[i] {
				s |= m.argAliases(n, arg)
			}
		}
		// Interface call: any module implementation may be the target.
		sig, _ := callee.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				for _, impl := range m.implementers(callee) {
					for i, arg := range args {
						if i < len(impl.mutates) && impl.mutates[i] {
							s |= m.argAliases(n, arg)
						}
					}
				}
			}
		}
		return s
	}
	// Non-module callee.
	if stdlibMutatesArg0[qualifiedName(callee)] && len(call.Args) > 0 {
		return m.aliases(n, call.Args[0])
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && !pureMethods[callee.Name()] {
		// Unknown method on a tracked value: assume it mutates its
		// receiver (sync.Mutex.Lock, rand.Rand.Intn, bytes.Buffer.Write...).
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := n.Pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				return m.aliases(n, sel.X)
			}
		}
	}
	return 0
}

// mutatesReceiver reports whether the method node's summary marks its
// receiver as mutated.
func (n *FuncNode) mutatesReceiver() bool {
	if n.Obj == nil || len(n.mutates) == 0 {
		return false
	}
	sig, _ := n.Obj.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil && n.mutates[0]
}
