package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pkgFuncObj resolves a selector to a package-level function and
// returns its package path and name, or "" when it is anything else
// (method, field, variable, type).
func pkgFuncObj(pkg *Package, sel *ast.SelectorExpr) (pkgPath, name string) {
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", "" // method: rand.Rand.Intn etc. are fine
	}
	return fn.Pkg().Path(), fn.Name()
}

// inspectAll walks every file of the pass's package.
func inspectAll(p *Pass, fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// analyzerWallClock forbids reading the wall clock in packages where
// simulated time is the only legitimate clock: time.Now, time.Since,
// and time.Until make replays non-reproducible and let real-machine
// speed leak into results.
var analyzerWallClock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock reads (time.Now/Since/Until) in deterministic packages; " +
		"scheduler-path code must run on the simulated round clock so replays are bit-identical",
	Run: func(p *Pass) {
		inspectAll(p, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, name := pkgFuncObj(p.Pkg, sel); pkg == "time" {
				switch name {
				case "Now", "Since", "Until":
					p.Reportf(sel.Pos(), "wall-clock read time.%s in deterministic package %s", name, p.Pkg.Types.Name())
				}
			}
			return true
		})
	},
}

// globalRandAllowed lists the math/rand functions that do NOT touch
// the global source: constructors for explicitly seeded generators.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// analyzerGlobalRand forbids the global math/rand functions (Intn,
// Float64, Shuffle, ...), which draw from a process-global, possibly
// auto-seeded source. Methods on an explicitly seeded *rand.Rand are
// fine.
var analyzerGlobalRand = &Analyzer{
	Name: "globalrand",
	Doc: "forbid global math/rand functions in deterministic packages; thread an explicitly " +
		"seeded *rand.Rand instead so every run replays identically from its seed",
	Run: func(p *Pass) {
		inspectAll(p, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFuncObj(p.Pkg, sel)
			if (pkg == "math/rand" || pkg == "math/rand/v2") && !globalRandAllowed[name] {
				p.Reportf(sel.Pos(), "global math/rand function rand.%s; use a seeded *rand.Rand", name)
			}
			return true
		})
	},
}

// collectsKeyOnly reports whether a range body is exactly the
// collect-then-sort idiom: a single append of the range variable into
// a slice (`keys = append(keys, k)`), optionally under a single filter
// guard, whose order the caller is expected to fix by sorting before
// use.
func collectsKeyOnly(body *ast.BlockStmt, key, value ast.Expr) bool {
	if len(body.List) != 1 {
		return false
	}
	stmt := body.List[0]
	// A single guard (`if c > 0 { keys = append(keys, k) }`) filters
	// the collection but does not order it: unwrap it.
	if ifs, ok := stmt.(*ast.IfStmt); ok && ifs.Init == nil && ifs.Else == nil && len(ifs.Body.List) == 1 {
		stmt = ifs.Body.List[0]
	}
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	names := map[string]bool{}
	for _, e := range []ast.Expr{key, value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			names[id.Name] = true
		}
	}
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok || !names[id.Name] {
			return false
		}
	}
	return true
}

// analyzerMapRange forbids ranging over maps in deterministic
// packages: Go randomizes map iteration order per run, so any schedule
// decision, emitted event, accumulated float, or rendered line that
// depends on it differs between replays. The one permitted shape is
// the collect-then-sort idiom (a body that only appends the key to a
// slice); everything else must sort keys first or carry a justified
// suppression.
var analyzerMapRange = &Analyzer{
	Name: "maprange",
	Doc: "forbid `range` over maps in deterministic packages (iteration order is randomized); " +
		"collect keys and sort them, or suppress with the reason the order cannot be observed",
	Run: func(p *Pass) {
		inspectAll(p, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Pkg.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if collectsKeyOnly(rs.Body, rs.Key, rs.Value) {
				return true
			}
			p.Reportf(rs.Pos(), "range over map %s: iteration order is nondeterministic; sort the keys first", types.TypeString(t, types.RelativeTo(p.Pkg.Types)))
			return true
		})
	},
}
