package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// analyzerOwnership enforces the single-owner goroutine discipline for
// guarded types (sim.Engine, federation.Federation): after
// construction, exactly one goroutine — the service run loop launched
// with `go` — may mutate the value. The analyzer classifies every
// mutation site (a call to a receiver-mutating method of a guarded
// type — named directly or behind an interface only guarded types
// implement — or a direct field store through a guarded value) by the
// goroutine context that reaches it:
//
//   - inside a method of a guarded type: internal, covered by the
//     outer value's own ownership;
//   - reachable from a `go` launch: the owning goroutine;
//   - reachable only from constructors (functions that create the
//     value): pre-publication setup, happens-before the launch;
//   - reachable from the exported API without a goroutine handoff
//     while a go-context owner exists: a violation — a reader or
//     handler is mutating the owner's state.
//
// Separately, a goroutine launched inside a loop that mutates a
// guarded value captured from outside the loop is always a violation:
// every iteration shares one owner.
var analyzerOwnership = &Analyzer{
	Name: "ownership",
	Doc: "enforce single-owner goroutine discipline for guarded types (doc marker " +
		"\"single-owner\" / \"not safe for concurrent use\"): mutations must stay on the " +
		"owning goroutine or in pre-publication constructors",
	RunModule: func(p *ModulePass) {
		m := p.Mod
		guarded := guardedTypes(m)
		if len(guarded) == 0 {
			return
		}
		guardedSet := map[*types.Named]bool{}
		for _, g := range guarded {
			guardedSet[g.Origin()] = true
		}

		mainReach := m.closure(exportedEntries(m, guardedSet))
		goCtxs := goContexts(m)

		for _, g := range guarded {
			sites := mutationSites(m, g, guardedSet)
			if len(sites) == 0 {
				continue
			}
			ctorReach := m.closure(constructorNodes(m, g))
			hasGoOwner := false
			for _, c := range goCtxs {
				for _, s := range sites {
					if c[s.node] {
						hasGoOwner = true
					}
				}
			}
			if !hasGoOwner {
				continue // batch-only usage: one goroutine total
			}
			for _, s := range sites {
				if !mainReach[s.node] || ctorReach[s.node] {
					continue
				}
				inGo := false
				for _, c := range goCtxs {
					if c[s.node] {
						inGo = true
					}
				}
				if inGo {
					continue
				}
				p.Reportf(s.node.Pkg, s.pos,
					"%s mutates single-owner %s outside its owning goroutine (reachable from the exported API "+
						"without a goroutine handoff); route the mutation through the owner's run loop",
					s.node.Name(), g.Obj().Name())
			}
		}

		checkLoopLaunches(p, guardedSet)
	},
}

// exportedEntries returns the nodes reachable by callers outside the
// module without a goroutine handoff: exported functions and methods,
// plus main and init. Methods of guarded types are excluded — calling
// those IS the mutation being classified, not an entry.
func exportedEntries(m *Module, guarded map[*types.Named]bool) []*FuncNode {
	var out []*FuncNode
	for _, n := range m.nodes {
		if n.Obj == nil {
			continue
		}
		if rb := receiverBase(n.Obj); rb != nil && guarded[rb.Origin()] {
			continue
		}
		if n.Obj.Exported() || n.Obj.Name() == "main" || n.Obj.Name() == "init" {
			out = append(out, n)
		}
	}
	return out
}

// goContexts returns one reachability set per `go` launch in the
// module: the functions that may execute on that launched goroutine.
func goContexts(m *Module) []map[*FuncNode]bool {
	var out []map[*FuncNode]bool
	for _, n := range m.nodes {
		for _, gl := range n.GoLaunches {
			if roots := m.launchRoots(gl); len(roots) > 0 {
				out = append(out, m.closure(roots))
			}
		}
	}
	return out
}

// mutSite is one mutation of a guarded value.
type mutSite struct {
	node *FuncNode
	pos  token.Pos
}

// guardedEnclosing reports whether the node (or, for a go-literal, its
// declaring parent chain) is a method of any guarded type.
func guardedEnclosing(n *FuncNode, guarded map[*types.Named]bool) bool {
	for at := n; at != nil; at = at.Parent {
		if at.Obj != nil {
			if rb := receiverBase(at.Obj); rb != nil && guarded[rb.Origin()] {
				return true
			}
		}
	}
	return false
}

// lvalueTouches reports whether an assignment target writes through a
// value of type g (a direct field store like e.digest = x, possibly
// nested: f.members[i].eng.round = x).
func lvalueTouches(n *FuncNode, lvalue ast.Expr, g *types.Named) bool {
	for e := ast.Unparen(lvalue); e != nil; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		default:
			named := namedOf(n.Pkg.TypeOf(e))
			return named != nil && named.Origin() == g.Origin()
		}
		if named := namedOf(n.Pkg.TypeOf(e)); named != nil && named.Origin() == g.Origin() {
			return true
		}
	}
	return false
}

// mutationSites collects every mutation of guarded type g outside g's
// (or any guarded type's) own methods: calls to receiver-mutating
// methods of g, and direct stores through g-typed expressions.
func mutationSites(m *Module, g *types.Named, guarded map[*types.Named]bool) []*mutSite {
	var sites []*mutSite
	for _, n := range m.nodes {
		if n.body() == nil || guardedEnclosing(n, guarded) {
			continue
		}
		for _, c := range n.Calls {
			for _, rb := range m.guardedMutations(c.Callee, c.Iface, guarded) {
				if rb == g.Origin() {
					sites = append(sites, &mutSite{node: n, pos: c.Expr.Pos()})
					break
				}
			}
		}
		node := n
		ast.Inspect(n.body(), func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.FuncLit:
				// go-launched literals are their own nodes; other
				// literals share this goroutine and stay attributed here.
				for _, gl := range node.GoLaunches {
					if gl.Node != nil && gl.Node.Lit == s {
						return false
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if lvalueTouches(node, lhs, g) {
						sites = append(sites, &mutSite{node: node, pos: s.Pos()})
					}
				}
			case *ast.IncDecStmt:
				if lvalueTouches(node, s.X, g) {
					sites = append(sites, &mutSite{node: node, pos: s.Pos()})
				}
			}
			return true
		})
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites
}

// constructorNodes returns the functions that create values of g:
// composite literals, new(g), or calls whose results contain g (its
// own constructors and wrappers like RestoreEngine / recoverJournal).
func constructorNodes(m *Module, g *types.Named) []*FuncNode {
	var out []*FuncNode
	for _, n := range m.nodes {
		if n.body() == nil || n.Obj == nil {
			continue
		}
		found := false
		ast.Inspect(n.body(), func(x ast.Node) bool {
			if found {
				return false
			}
			switch s := x.(type) {
			case *ast.CompositeLit:
				if named := namedOf(n.Pkg.TypeOf(s)); named != nil && named.Origin() == g.Origin() {
					found = true
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "new" && n.Pkg.Info.Uses[id] == nil {
					if len(s.Args) == 1 && typeContainsNamed(n.Pkg.TypeOf(s.Args[0]), g, 0) {
						found = true
						return false
					}
				}
				if t := n.Pkg.TypeOf(s); t != nil && typeContainsNamed(t, g, 0) {
					found = true
				}
			}
			return true
		})
		if found {
			out = append(out, n)
		}
	}
	return out
}

// checkLoopLaunches flags goroutines launched in a loop whose bodies
// mutate a guarded value captured from OUTSIDE the loop: N goroutines
// sharing one owner. Per-iteration loop variables (one value per
// goroutine since Go 1.22) are exempt.
func checkLoopLaunches(p *ModulePass, guarded map[*types.Named]bool) {
	m := p.Mod
	for _, n := range m.nodes {
		for _, gl := range n.GoLaunches {
			if !gl.InLoop() || gl.Node == nil || gl.Node.body() == nil {
				continue
			}
			lit := gl.Node
			ast.Inspect(lit.body(), func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, iface := m.resolveCallee(lit.Pkg, call)
				if callee == nil {
					return true
				}
				mutated := m.guardedMutations(callee, iface, guarded)
				if len(mutated) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				base := baseIdentObj(lit.Pkg, sel.X)
				if base == nil {
					return true
				}
				// Captured from outside the loop: declared before the
				// loop began and outside the literal itself.
				if base.Pos() >= gl.Loop.Pos() && base.Pos() <= gl.Loop.End() {
					return true // loop variable or loop-local: fresh per iteration
				}
				p.Reportf(lit.Pkg, call.Pos(),
					"goroutine launched in a loop mutates single-owner %s %q captured from outside the loop; "+
						"every iteration shares one owner",
					mutated[0].Obj().Name(), base.Name())
				return true
			})
		}
	}
}

// baseIdentObj resolves the base identifier of a selector chain to its
// object.
func baseIdentObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[x]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
