package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module view digesttaint needs: a
// callgraph over every declared function and method, with interface
// calls resolved to the module's implementations. It stays
// zero-dependency: everything is derived from the go/types information
// the loader already computed.

// Module is the interprocedural view over one set of loaded packages.
type Module struct {
	// nodes holds every declared function and method with a body, in
	// deterministic (position) order.
	nodes []*FuncNode
	// byObj maps a declared function/method object to its node.
	byObj map[*types.Func]*FuncNode
	// named lists the module's named (non-generic) types in
	// deterministic order, for interface-implementation resolution.
	named []*types.Named
	// impls caches interface-method -> implementing-method resolution.
	impls map[*types.Func][]*FuncNode
}

// FuncNode is one declared function or method in the callgraph.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Calls are the resolved call sites in the body, function literals
	// and `go` statements included.
	Calls []*CallSite
}

// CallSite is one resolved call expression.
type CallSite struct {
	Expr   *ast.CallExpr
	Callee *types.Func // static callee, or the interface method
	Iface  bool        // dynamic dispatch through an interface
}

// Name renders the node for diagnostics: pkg-relative, method
// receivers included.
func (n *FuncNode) Name() string {
	if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), types.RelativeTo(n.Pkg.Types)), n.Obj.Name())
	}
	return n.Obj.Name()
}

// Pos is the node's declaration position.
func (n *FuncNode) Pos() token.Pos { return n.Decl.Pos() }

// body returns the node's statement body.
func (n *FuncNode) body() *ast.BlockStmt { return n.Decl.Body }

// BuildModule indexes the packages into a callgraph. The packages must
// share one FileSet (as LoadModule and LoadDir guarantee).
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
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
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					if call, ok := x.(*ast.CallExpr); ok {
						if callee, iface := m.resolveCallee(pkg, call); callee != nil {
							node.Calls = append(node.Calls, &CallSite{Expr: call, Callee: callee, Iface: iface})
						}
					}
					return true
				})
				m.nodes = append(m.nodes, node)
				m.byObj[obj] = node
			}
		}
	}
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i].Pos() < m.nodes[j].Pos() })
	return m
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
// interface or a type parameter; none for an unresolved (nil) callee.
func (m *Module) calleeNodes(callee *types.Func, iface bool) []*FuncNode {
	if callee == nil {
		return nil
	}
	if iface {
		return m.implementers(callee)
	}
	if n := m.node(callee); n != nil {
		return []*FuncNode{n}
	}
	return nil
}

// closure returns the nodes reachable from roots over call edges, each
// mapped to the node it was first reached from (nil for a root), for
// rendering call-chain evidence in diagnostics.
func (m *Module) closure(roots []*FuncNode) map[*FuncNode]*FuncNode {
	parent := map[*FuncNode]*FuncNode{}
	work := []*FuncNode{}
	for _, r := range roots {
		if _, seen := parent[r]; !seen {
			parent[r] = nil
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, c := range n.Calls {
			for _, callee := range m.calleeNodes(c.Callee, c.Iface) {
				if _, seen := parent[callee]; !seen {
					parent[callee] = n
					work = append(work, callee)
				}
			}
		}
	}
	return parent
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
