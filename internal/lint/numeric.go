package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// isFloat reports whether the expression's type is (or has underlying)
// float32/float64.
func isFloat(p *Pass, e ast.Expr) bool {
	t := p.Pkg.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// analyzerFloatEq forbids == and != between floating-point operands.
// The dual-price arithmetic (Eq. 5-8) and the conservation accounting
// are exact float math validated against tolerances; a raw equality is
// either a latent bug (values that "should" be equal drift apart after
// reassociation) or an identity check that deserves an explicit
// justification. Use an epsilon (invariant.Tol) or an ordered
// comparison instead.
var analyzerFloatEq = &Analyzer{
	Name: "floateq",
	Doc: "forbid ==/!= between floating-point operands; compare against an explicit epsilon " +
		"(invariant.Tol) or restructure with </>, suppressing only genuine bitwise-identity checks",
	Run: func(p *Pass) {
		inspectAll(p, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if isFloat(p, be.X) && isFloat(p, be.Y) {
				p.Reportf(be.OpPos, "floating-point %s comparison; use an epsilon (invariant.Tol) or an ordered comparison", be.Op)
			}
			return true
		})
	},
}

// commentLines maps each line carrying a comment to the comment text,
// for the documented-tolerance check.
func commentLines(p *Pass, f *ast.File) map[int]string {
	m := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			pos := p.Pkg.Fset.Position(c.Pos())
			end := p.Pkg.Fset.Position(c.End())
			for line := pos.Line; line <= end.Line; line++ {
				m[line] += c.Text
			}
		}
	}
	return m
}

// documentsTolerance reports whether the statement at the given line
// carries (on its own line or within the three lines above it) a
// comment acknowledging the accumulated error, by mentioning a
// tolerance or the shared epsilon.
func documentsTolerance(comments map[int]string, line int) bool {
	for l := line - 3; l <= line; l++ {
		c := strings.ToLower(comments[l])
		if strings.Contains(c, "tolerance") || strings.Contains(c, "invariant.tol") {
			return true
		}
	}
	return false
}

// analyzerFloatAccum flags floating-point accumulation into persistent
// state (a field or element, not a function-local) inside a loop,
// unless a nearby comment documents the tolerance story. Cross-round
// sums drift by round-off; the drift is fine exactly when something
// (the invariant oracle's conservation check, a report-level bound)
// owns the error budget — and that ownership must be written down.
var analyzerFloatAccum = &Analyzer{
	Name: "floataccum",
	Doc: "flag float += / -= into fields or elements inside loops without a documented tolerance; " +
		"cross-round accumulation drifts, so a comment must say which check owns the error budget",
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			comments := commentLines(p, f)
			var loopDepth int
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loopDepth++
					for _, c := range children(s) {
						ast.Inspect(c, walk)
					}
					loopDepth--
					return false
				case *ast.AssignStmt:
					if loopDepth == 0 || (s.Tok != token.ADD_ASSIGN && s.Tok != token.SUB_ASSIGN) {
						return true
					}
					lhs := s.Lhs[0]
					switch lhs.(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
					default:
						return true // locals accumulate within one scope; fine
					}
					if !isFloat(p, lhs) {
						return true
					}
					line := p.Pkg.Fset.Position(s.Pos()).Line
					if !documentsTolerance(comments, line) {
						p.Reportf(s.Pos(), "float accumulation into persistent state inside a loop without a documented tolerance")
					}
				}
				return true
			}
			ast.Inspect(f, walk)
		}
	},
}

// children returns the immediate child nodes of a for/range statement
// so the walker can re-enter them with the loop depth raised.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	add := func(c ast.Node) {
		if c != nil {
			out = append(out, c)
		}
	}
	switch s := n.(type) {
	case *ast.ForStmt:
		add(s.Init)
		add(s.Cond)
		add(s.Post)
		add(s.Body)
	case *ast.RangeStmt:
		add(s.Key)
		add(s.Value)
		add(s.X)
		add(s.Body)
	}
	return out
}
