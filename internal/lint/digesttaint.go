package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// analyzerDigestTaint replaces the path-scoped allowlists with real
// taint tracking for the golden digests: it finds every fold site (an
// assignment into a *digest* field or a method named Digest), resolves
// the producers whose results feed the fold — including dynamic
// Scheduler.Schedule dispatch to every module implementation — and
// walks the transitive callee closure of fold+producers looking for
// nondeterminism sources: unsorted map ranges, wall-clock reads, and
// global math/rand draws. A package can sit outside the maprange /
// wallclock allowlists and still poison the digest through an
// interface call; this rule follows the dataflow instead of the
// directory layout. Sites already covered by the syntactic rules'
// configured scopes are not re-reported.
var analyzerDigestTaint = &Analyzer{
	Name: "digesttaint",
	Doc: "track values flowing into schedule digests (fold sites and their producers, " +
		"resolved through interfaces) and flag unsorted map ranges, wall-clock reads, and " +
		"global rand draws anywhere on that dataflow path",
	RunModule: func(p *ModulePass) {
		m := p.Mod
		reported := map[token.Pos]bool{}
		for _, fold := range foldSites(m) {
			roots := []*FuncNode{fold.node}
			roots = append(roots, producers(m, fold.node)...)
			parents := m.closure(roots)
			var nodes []*FuncNode
			for n := range parents {
				nodes = append(nodes, n)
			}
			sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })
			foldAt := fold.node.Pkg.Fset.Position(fold.pos)
			for _, n := range nodes {
				scanTaintedFunc(p, n, parents, foldAt.String(), reported)
			}
		}
	},
}

// foldSite is one assignment that chains state into a digest.
type foldSite struct {
	node *FuncNode
	pos  token.Pos
}

// foldSites finds digest folds: assignments whose target name contains
// "digest" with a non-literal source, plus methods named Digest.
func foldSites(m *Module) []*foldSite {
	var out []*foldSite
	for _, n := range m.nodes {
		if strings.EqualFold(n.Obj.Name(), "digest") {
			out = append(out, &foldSite{node: n, pos: n.Pos()})
			continue
		}
		node := n
		ast.Inspect(n.body(), func(x ast.Node) bool {
			as, ok := x.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				if !strings.Contains(strings.ToLower(terminalName(lhs)), "digest") {
					continue
				}
				if _, isLit := ast.Unparen(as.Rhs[i]).(*ast.BasicLit); isLit {
					continue // digest = 0 resets fold no state
				}
				out = append(out, &foldSite{node: node, pos: as.Pos()})
			}
			return true
		})
	}
	return out
}

// terminalName is the last identifier of an lvalue chain (x, s.digest,
// m[k] -> "").
func terminalName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.StarExpr:
		return terminalName(x.X)
	}
	return ""
}

// producers resolves the functions whose results feed a fold
// function's arguments at its call sites: direct call arguments and
// single-assignment locals, with interface callees expanded to every
// module implementation.
func producers(m *Module, fold *FuncNode) []*FuncNode {
	var out []*FuncNode
	for _, caller := range m.nodes {
		for _, c := range caller.Calls {
			if c.Callee == fold.Obj || c.Callee.Origin() == fold.Obj {
				for _, arg := range c.Expr.Args {
					out = append(out, argProducers(m, caller, arg)...)
				}
			}
		}
	}
	return out
}

// argProducers finds the calls that may have produced the value of
// arg: the call itself, or assignments to the local it names.
func argProducers(m *Module, caller *FuncNode, arg ast.Expr) []*FuncNode {
	switch x := ast.Unparen(arg).(type) {
	case *ast.CallExpr:
		return m.calleeNodes(m.resolveCallee(caller.Pkg, x))
	case *ast.Ident:
		obj := caller.Pkg.Info.Uses[x]
		if obj == nil {
			return nil
		}
		var out []*FuncNode
		ast.Inspect(caller.body(), func(y ast.Node) bool {
			as, ok := y.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				def := caller.Pkg.Info.Defs[id]
				if def == nil {
					def = caller.Pkg.Info.Uses[id]
				}
				if def != obj {
					continue
				}
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
					out = append(out, m.calleeNodes(m.resolveCallee(caller.Pkg, call))...)
				}
			}
			return true
		})
		return out
	}
	return nil
}

// orderInsensitiveRange reports whether a map-range body is a
// commutative accumulation whose result cannot depend on iteration
// order: every statement is an integer/boolean accumulation into one
// lvalue (n += c), a store indexed by the range key (out[k] = v,
// f[k] += c — each iteration owns its own key), a constant flag set
// (ok = true), a guarded continue, or a guarded early return whose
// only non-nil results are errors (an aborted fold never reaches the
// digest; which of several bad entries aborts it first is
// immaterial). Guard conditions are assumed side-effect-free.
// Anything else — appends, calls, float accumulation (float addition
// is not associative), returns of data — keeps the range flagged.
func orderInsensitiveRange(n *FuncNode, rs *ast.RangeStmt) bool {
	keyObj := rangeVarObj(n, rs.Key)
	var stmtOK func(s ast.Stmt, guarded bool) bool
	stmtOK = func(s ast.Stmt, guarded bool) bool {
		switch st := s.(type) {
		case *ast.AssignStmt:
			return orderInsensitiveAssign(n, st, keyObj)
		case *ast.IncDecStmt:
			return keyedByRange(n, st.X, keyObj) || intOrBoolLvalue(n, st.X)
		case *ast.BranchStmt:
			return st.Tok == token.CONTINUE && st.Label == nil
		case *ast.IfStmt:
			if st.Init != nil || st.Else != nil {
				return false
			}
			for _, bs := range st.Body.List {
				if !stmtOK(bs, true) {
					return false
				}
			}
			return true
		case *ast.ReturnStmt:
			if !guarded {
				return false
			}
			for _, r := range st.Results {
				if id, isID := ast.Unparen(r).(*ast.Ident); isID && id.Name == "nil" {
					continue
				}
				t := n.Pkg.TypeOf(r)
				if t == nil || !isErrorType(t) {
					return false
				}
			}
			return true
		}
		return false
	}
	for _, s := range rs.Body.List {
		if !stmtOK(s, false) {
			return false
		}
	}
	return true
}

// orderInsensitiveAssign classifies one assignment inside a map range
// (see orderInsensitiveRange for the accepted shapes).
func orderInsensitiveAssign(n *FuncNode, as *ast.AssignStmt, keyObj types.Object) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || hasCall(as.Rhs[0]) {
		return false
	}
	lhs, rhs := as.Lhs[0], as.Rhs[0]
	switch as.Tok {
	case token.ASSIGN:
		if keyedByRange(n, lhs, keyObj) {
			return true
		}
		if _, isID := ast.Unparen(lhs).(*ast.Ident); isID && isConstExpr(rhs) {
			return true
		}
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN:
		return keyedByRange(n, lhs, keyObj) || intOrBoolLvalue(n, lhs)
	}
	return false
}

// rangeVarObj resolves the object defined by a range key/value clause
// variable (nil for `_` or non-identifier clauses).
func rangeVarObj(n *FuncNode, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := n.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return n.Pkg.Info.Uses[id]
}

// keyedByRange reports whether lhs is an index expression whose index
// is exactly the range key variable: each iteration then writes a
// distinct element, so iteration order cannot matter.
func keyedByRange(n *FuncNode, lhs ast.Expr, keyObj types.Object) bool {
	if keyObj == nil {
		return false
	}
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(ix.Index).(*ast.Ident)
	return ok && n.Pkg.Info.Uses[id] == keyObj
}

// intOrBoolLvalue reports whether e is an identifier of integer or
// boolean type — the types whose += / |= / ^= accumulations commute.
func intOrBoolLvalue(n *FuncNode, e ast.Expr) bool {
	if _, ok := ast.Unparen(e).(*ast.Ident); !ok {
		return false
	}
	t := n.Pkg.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Info()&types.IsInteger != 0 || b.Info()&types.IsBoolean != 0)
}

// hasCall reports whether the expression contains any function call.
func hasCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if _, ok := x.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// isConstExpr matches literal constants and true/false.
func isConstExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return x.Name == "true" || x.Name == "false"
	}
	return false
}

// isErrorType reports whether t is (or implements) the error interface.
func isErrorType(t types.Type) bool {
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return errIface != nil && types.Implements(t, errIface)
}

// scanTaintedFunc reports nondeterminism sources in one function on
// the digest dataflow path, skipping sites the syntactic rules already
// police under the active config.
func scanTaintedFunc(p *ModulePass, n *FuncNode, parents map[*FuncNode]*FuncNode, foldAt string, reported map[token.Pos]bool) {
	covered := func(rule string) bool {
		return p.Cfg != nil && p.Cfg.inScope(rule, n.Pkg.Path)
	}
	via := chain(parents, n)
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		args = append(args, via, foldAt)
		p.Reportf(n.Pkg, pos, format+" on digest dataflow path %s (fold at %s)", args...)
	}
	ast.Inspect(n.body(), func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.RangeStmt:
			if covered("maprange") {
				return true
			}
			t := n.Pkg.TypeOf(s.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if collectsKeyOnly(s.Body, s.Key, s.Value) || orderInsensitiveRange(n, s) {
				return true
			}
			report(s.Pos(), "unsorted range over map %s", types.TypeString(t, types.RelativeTo(n.Pkg.Types)))
		case *ast.SelectorExpr:
			switch pkg, name := pkgFuncObj(n.Pkg, s); pkg {
			case "time":
				if !covered("wallclock") && (name == "Now" || name == "Since" || name == "Until") {
					report(s.Pos(), "wall-clock read time.%s", name)
				}
			case "math/rand", "math/rand/v2":
				if !covered("globalrand") && !globalRandAllowed[name] {
					report(s.Pos(), "global math/rand draw rand.%s", name)
				}
			}
		}
		return true
	})
}
