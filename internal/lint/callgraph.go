package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module view the interprocedural analyzers
// (snapescape, ownership, digesttaint) share: a callgraph
// over every declared function and method, with interface calls
// resolved to the module's implementations and `go`-launched function
// literals split out as goroutine roots. It stays zero-dependency:
// everything is derived from the go/types information the loader
// already computed.

// Module is the interprocedural view over one set of loaded packages.
type Module struct {
	Pkgs []*Package

	// nodes holds every function node in deterministic (position)
	// order: declared functions and methods first-class, plus one
	// synthetic node per go-launched function literal.
	nodes []*FuncNode
	// byObj maps a declared function/method object to its node.
	byObj map[*types.Func]*FuncNode
	// named lists the module's named (non-generic) types in
	// deterministic order, for interface-implementation resolution.
	named []*types.Named
	// impls caches interface-method -> implementing-method resolution.
	impls map[*types.Func][]*FuncNode
	// appendOnly and immutable are the sharing contracts declared in
	// doc comments (contracts.go); the alias analysis reads them.
	appendOnly map[*types.Var]bool
	immutable  map[*types.Named]bool
}

// FuncNode is one function in the callgraph: a declared function or
// method (Obj/Decl set) or a go-launched function literal (Lit/Parent
// set, Obj nil).
type FuncNode struct {
	Obj    *types.Func
	Decl   *ast.FuncDecl
	Lit    *ast.FuncLit
	Parent *FuncNode
	Pkg    *Package

	// Calls are the resolved call sites executed on this node's own
	// goroutine (calls inside nested go-launched literals belong to
	// the literal's node, not this one).
	Calls []*CallSite
	// GoLaunches are the `go` statements in the body: each one starts
	// a new goroutine context.
	GoLaunches []*GoLaunch

	// Summaries computed by the mod-ref fixpoint (modref.go).
	// Index 0 is the receiver when present; parameters follow.
	mutates  []bool
	aliasRet paramSet

	// roots caches the intra-procedural alias sets (modref.go).
	roots map[types.Object]paramSet
	// kills records, per struct-valued local, the fields the body
	// overwrites before it can return, with what (modref.go).
	kills map[types.Object]map[*types.Var][]ast.Expr
	// resolving holds the killed fields whose alias sets are being
	// computed (killedField).
	resolving map[localField]bool
	// rewrites marks the parameters through which the function writes
	// shared-by-contract storage in place (frozen.go).
	rewrites paramSet
}

// CallSite is one resolved call expression.
type CallSite struct {
	Expr   *ast.CallExpr
	Callee *types.Func // static callee, or the interface method
	Iface  bool        // dynamic dispatch through an interface
	InLoop bool
}

// GoLaunch is one `go` statement.
type GoLaunch struct {
	Site   *ast.GoStmt
	Callee *types.Func // go m(...): the launched function, nil for literals
	Iface  bool
	Node   *FuncNode // go func(){...}(): the literal's synthetic node
	Loop   ast.Node  // innermost enclosing for/range statement, nil outside loops
}

// InLoop reports whether the launch executes once per loop iteration.
func (gl *GoLaunch) InLoop() bool { return gl.Loop != nil }

// Name renders the node for diagnostics: pkg-relative, method
// receivers included, go-literals named after their parent.
func (n *FuncNode) Name() string {
	if n.Obj == nil {
		if n.Parent != nil {
			return n.Parent.Name() + ".go-func"
		}
		return "go-func"
	}
	if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), types.RelativeTo(n.Pkg.Types)), n.Obj.Name())
	}
	return n.Obj.Name()
}

// Pos is the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return token.NoPos
}

// BuildModule indexes the packages into a callgraph. The packages must
// share one FileSet (as LoadModule and LoadDir guarantee).
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  pkgs,
		byObj: map[*types.Func]*FuncNode{},
		impls: map[*types.Func][]*FuncNode{},
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			m.named = append(m.named, named)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				m.nodes = append(m.nodes, node)
				m.byObj[obj] = node
				m.attribute(node, fd.Body, nil)
			}
		}
	}
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i].Pos() < m.nodes[j].Pos() })
	m.appendOnly = appendOnlyFields(m)
	m.immutable = immutableTypes(m)
	computeSummaries(m)
	return m
}

// attribute walks body, recording call sites and go-launches on node.
// Nested go-launched literals get their own synthetic nodes; all other
// function literals (deferred, stored, immediately invoked) run on the
// same goroutine for our purposes and stay attributed to node.
func (m *Module) attribute(node *FuncNode, body ast.Node, loop ast.Node) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.ForStmt:
			if s.Init != nil {
				m.attribute(node, s.Init, loop)
			}
			if s.Cond != nil {
				m.attribute(node, s.Cond, loop)
			}
			if s.Post != nil {
				m.attribute(node, s.Post, loop)
			}
			m.attribute(node, s.Body, s)
			return false
		case *ast.RangeStmt:
			m.attribute(node, s.X, loop)
			m.attribute(node, s.Body, s)
			return false
		case *ast.GoStmt:
			gl := &GoLaunch{Site: s, Loop: loop}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				child := &FuncNode{Lit: lit, Parent: node, Pkg: node.Pkg}
				m.nodes = append(m.nodes, child)
				gl.Node = child
				m.attribute(child, lit.Body, nil)
			} else {
				gl.Callee, gl.Iface = m.resolveCallee(node.Pkg, s.Call)
			}
			node.GoLaunches = append(node.GoLaunches, gl)
			for _, a := range s.Call.Args {
				m.attribute(node, a, loop)
			}
			return false
		case *ast.CallExpr:
			if callee, iface := m.resolveCallee(node.Pkg, s); callee != nil {
				node.Calls = append(node.Calls, &CallSite{Expr: s, Callee: callee, Iface: iface, InLoop: loop != nil})
			}
			return true
		}
		return true
	})
}

// resolveCallee resolves a call expression to its static callee (a
// declared function or a possibly-interface method), or nil for
// builtins, conversions, and calls of function-typed values.
func (m *Module) resolveCallee(pkg *Package, call *ast.CallExpr) (*types.Func, bool) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[f].(*types.Func); ok {
			return fn, false
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				_, iface := sel.Recv().Underlying().(*types.Interface)
				return fn, iface
			}
			return nil, false
		}
		if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return fn, false // package-qualified call
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				return fn, false
			}
		}
	}
	return nil, false
}

// node returns the FuncNode for a declared function object, nil for
// functions outside the module.
func (m *Module) node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	if n, ok := m.byObj[fn]; ok {
		return n
	}
	// Generic origin: calls to instantiated generics resolve to the
	// instance object; map it back to the declaration.
	if o := fn.Origin(); o != fn {
		return m.byObj[o]
	}
	return nil
}

// implementers resolves a dynamic call through interface method ifm to
// every module-declared method that may answer it, in node order.
func (m *Module) implementers(ifm *types.Func) []*FuncNode {
	if cached, ok := m.impls[ifm]; ok {
		return cached
	}
	var out []*FuncNode
	sig, _ := ifm.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			lookupPkg := ifm.Pkg()
			for _, named := range m.named {
				ptr := types.NewPointer(named)
				if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, lookupPkg, ifm.Name())
				if fn, ok := obj.(*types.Func); ok {
					if n := m.node(fn); n != nil {
						out = append(out, n)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	m.impls[ifm] = out
	return out
}

// calleeNodes returns the module nodes a call may reach: the static
// callee, or every implementation for a call dispatched through an
// interface or a type parameter.
func (m *Module) calleeNodes(callee *types.Func, iface bool) []*FuncNode {
	if iface {
		return m.implementers(callee)
	}
	if n := m.node(callee); n != nil {
		return []*FuncNode{n}
	}
	return nil
}

// guardedMutations returns the guarded (origin) types a call may
// mutate: its static callee's receiver, or — through an interface or a
// type parameter — the receivers of the implementers whose summaries
// mutate them, so an owner that holds its guarded backend behind an
// interface field is still seen mutating it. An interface counts only
// when it abstracts single-owner state alone: it is declared in the
// module (a stdlib interface has implementers the module cannot see)
// and every module implementer is guarded. Otherwise each
// sched.Scheduler.Schedule or io.Closer.Close call would read as a
// mutation of whichever guarded type happens to implement it.
func (m *Module) guardedMutations(callee *types.Func, iface bool, guarded map[*types.Named]bool) []*types.Named {
	if iface && m.pkgFor(callee.Pkg()) == nil {
		return nil
	}
	var out []*types.Named
	for _, n := range m.calleeNodes(callee, iface) {
		rb := receiverBase(n.Obj)
		if rb == nil || !guarded[rb.Origin()] {
			if iface {
				return nil
			}
			continue
		}
		if n.mutatesReceiver() {
			out = append(out, rb.Origin())
		}
	}
	return out
}

// launchRoots returns the nodes a go-launch starts: the literal's node
// or the resolved (possibly interface) callee nodes.
func (m *Module) launchRoots(gl *GoLaunch) []*FuncNode {
	if gl.Node != nil {
		return []*FuncNode{gl.Node}
	}
	return m.calleeNodes(gl.Callee, gl.Iface)
}

// closure returns the set of nodes reachable from roots over ordinary
// call edges (go-launch edges excluded: they change goroutine).
func (m *Module) closure(roots []*FuncNode) map[*FuncNode]bool {
	seen := map[*FuncNode]bool{}
	var work []*FuncNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, c := range n.Calls {
			for _, callee := range m.calleeNodes(c.Callee, c.Iface) {
				if !seen[callee] {
					seen[callee] = true
					work = append(work, callee)
				}
			}
		}
	}
	return seen
}

// closureWithParents is closure plus a parent edge per reached node,
// for rendering call-chain evidence in diagnostics.
func (m *Module) closureWithParents(roots []*FuncNode) (map[*FuncNode]bool, map[*FuncNode]*FuncNode) {
	seen := map[*FuncNode]bool{}
	parent := map[*FuncNode]*FuncNode{}
	var work []*FuncNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, c := range n.Calls {
			for _, callee := range m.calleeNodes(c.Callee, c.Iface) {
				if !seen[callee] {
					seen[callee] = true
					parent[callee] = n
					work = append(work, callee)
				}
			}
		}
	}
	return seen, parent
}

// chain renders the call path from a root to n, e.g. "Schedule -> explore".
func chain(parent map[*FuncNode]*FuncNode, n *FuncNode) string {
	var names []string
	for at := n; at != nil; at = parent[at] {
		names = append(names, at.Name())
		if len(names) > 8 {
			break
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// receiverBase returns the named type of a method's receiver (through
// one pointer), or nil.
func receiverBase(fn *types.Func) *types.Named {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// docOf returns the doc comment attached to a named type's
// declaration, checking both the TypeSpec and its parent GenDecl.
func (m *Module) docOf(named *types.Named) string {
	obj := named.Obj()
	pkg := m.pkgFor(obj.Pkg())
	if pkg == nil {
		return ""
	}
	for _, f := range pkg.Files {
		if f.Pos() > obj.Pos() || obj.Pos() > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Pos() != obj.Pos() {
					continue
				}
				if ts.Doc != nil {
					return ts.Doc.Text()
				}
				if gd.Doc != nil {
					return gd.Doc.Text()
				}
				return ""
			}
		}
	}
	return ""
}

// pkgFor maps a types.Package back to the loaded Package.
func (m *Module) pkgFor(tp *types.Package) *Package {
	if tp == nil {
		return nil
	}
	for _, p := range m.Pkgs {
		if p.Types == tp {
			return p
		}
	}
	return nil
}
