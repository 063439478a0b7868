package lint

import (
	"go/ast"
	"go/types"
)

// analyzerSnapEscape proves that publishing freezes: no mutable
// reference (slice backing array, map, pointer field) stored into a
// published Snapshot/FedSnapshot value may alias the live engine state
// the publishing function can reach through its receiver or
// parameters. A snapshot handed to a reader over an atomic pointer is
// only immutable if every reference-bearing field was deep-copied or is
// shared under one of the two contracts that make sharing as good as a
// copy — a capacity-clamped prefix of an append-only slice field, a
// value of an immutable-after-construction type (contracts.go) — and
// those hold only while nothing writes such storage in place, which the
// rule checks module-wide (frozen.go). One shared map, or one in-place
// sort of a shared slice, turns every reader into a data race and every
// published view into a lie.
var analyzerSnapEscape = &Analyzer{
	Name: "snapescape",
	Doc: "prove that publishing freezes: a reference-bearing value stored into a published " +
		"*Snapshot must not alias live state reachable from the publisher's receiver or " +
		"parameters — deep-copy (Clone) it, or share it as a clamped prefix x.F[:n:n] of an " +
		"\"append-only\" slice field or as a value of an \"immutable after construction\" type; " +
		"and nothing anywhere writes such shared storage in place",
	RunModule: func(p *ModulePass) {
		m := p.Mod
		checkFrozen(p)
		snaps := snapshotTypes(m)
		if len(snaps) == 0 {
			return
		}
		for _, n := range m.nodes {
			if n.Obj == nil || n.body() == nil {
				continue
			}
			// Methods on a snapshot type are readers of already-frozen
			// data; aliases inside them point at immutable state.
			if rb := receiverBase(n.Obj); rb != nil && snaps[rb] {
				continue
			}
			checkSnapshotStores(p, n, snaps)
		}
	},
}

// isSnapshotType reports whether t (through one pointer) is a snapshot
// type.
func isSnapshotType(t types.Type, snaps map[*types.Named]bool) bool {
	named := namedOf(t)
	return named != nil && snaps[named.Origin()]
}

// lvalueInSnapshot reports whether an assignment target writes into a
// snapshot value: some prefix of the selector/index/deref chain is
// snapshot-typed (snap.Field, snap.M[k], (*snap).F, ...).
func lvalueInSnapshot(n *FuncNode, lvalue ast.Expr, snaps map[*types.Named]bool) bool {
	for e := ast.Unparen(lvalue); e != nil; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		default:
			return isSnapshotType(n.Pkg.TypeOf(e), snaps)
		}
		if isSnapshotType(n.Pkg.TypeOf(e), snaps) {
			return true
		}
	}
	return false
}

// paramRef names the first parameter in the alias set for diagnostics.
func paramRef(n *FuncNode, s paramSet) string {
	if n.Obj == nil {
		return "enclosing state"
	}
	objs := paramObjs(n.Obj)
	sig, _ := n.Obj.Type().(*types.Signature)
	for i, v := range objs {
		if !s.has(i) {
			continue
		}
		if i == 0 && sig != nil && sig.Recv() != nil {
			return "receiver " + v.Name()
		}
		return "parameter " + v.Name()
	}
	return "a parameter"
}

// checkSnapshotStores flags reference-bearing values that flow into a
// snapshot while aliasing the publisher's receiver or parameters, both
// through field assignments and composite-literal elements.
func checkSnapshotStores(p *ModulePass, n *FuncNode, snaps map[*types.Named]bool) {
	m := p.Mod
	m.rootSets(n)
	ast.Inspect(n.body(), func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if !lvalueInSnapshot(n, lhs, snaps) {
					continue
				}
				rhs := s.Rhs[i]
				if !containsRef(n.Pkg.TypeOf(rhs)) {
					continue
				}
				if isSnapshotType(n.Pkg.TypeOf(rhs), snaps) {
					continue // snapshot-into-snapshot: fields vetted at their own stores
				}
				if al := m.aliases(n, rhs); al != 0 {
					p.Reportf(n.Pkg, s.Pos(),
						"store into published snapshot aliases live state reachable from %s of %s; deep-copy before publishing",
						paramRef(n, al), n.Name())
				}
			}
		case *ast.CompositeLit:
			if !isSnapshotType(n.Pkg.TypeOf(s), snaps) {
				return true
			}
			for _, elt := range s.Elts {
				v := elt
				field := ""
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok {
						field = id.Name
					}
				}
				vt := n.Pkg.TypeOf(v)
				if !containsRef(vt) {
					continue
				}
				// A nested snapshot-typed literal is vetted on its own
				// visit; a snapshot-typed value from elsewhere is
				// already frozen.
				if isSnapshotType(vt, snaps) {
					continue
				}
				if _, isLit := ast.Unparen(v).(*ast.CompositeLit); isLit {
					if elem, ok := vt.Underlying().(*types.Slice); ok && isSnapshotType(elem.Elem(), snaps) {
						continue
					}
				}
				if al := m.aliases(n, v); al != 0 {
					p.Reportf(n.Pkg, v.Pos(),
						"snapshot field %s aliases live state reachable from %s of %s; deep-copy before publishing",
						field, paramRef(n, al), n.Name())
				}
			}
		}
		return true
	})
}
