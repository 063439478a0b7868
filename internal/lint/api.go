package lint

import (
	"go/ast"
	"go/types"
)

// analyzerPanic forbids the panic builtin in library code. Internal
// invariant violations must go through the designated hook,
// bug.Failf (internal/bug), which DefaultConfig exempts; everything
// else is an input error and must be returned as an error. A panic
// that escapes a scheduler mid-round leaves the control plane holding
// devices and the simulator's state half-advanced.
var analyzerPanic = &Analyzer{
	Name: "panicrule",
	Doc: "forbid the panic builtin in library code outside the designated invariant-violation " +
		"hook (internal/bug's Failf); return errors for input problems, call bug.Failf for programmer errors",
	Run: func(p *Pass) {
		inspectAll(p, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true // a local function shadowing the name
			}
			p.Reportf(call.Pos(), "panic in library code; return an error, or call bug.Failf for a violated internal invariant")
			return true
		})
	},
}

// stdoutPrinters are the fmt functions that write to process stdout.
var stdoutPrinters = map[string]bool{
	"Print":   true,
	"Println": true,
	"Printf":  true,
}

// analyzerPrint forbids writing to stdout from library code: fmt.Print*
// (and the print/println builtins) belong in cmd/, where the binary
// owns its output stream. Library code printing directly corrupts
// machine-read exports and the live server's responses.
var analyzerPrint = &Analyzer{
	Name: "printrule",
	Doc: "forbid fmt.Print/Println/Printf and the print/println builtins outside cmd/; " +
		"library code must write through an injected io.Writer",
	Run: func(p *Pass) {
		inspectAll(p, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if pkg, name := pkgFuncObj(p.Pkg, e); pkg == "fmt" && stdoutPrinters[name] {
					p.Reportf(e.Pos(), "fmt.%s writes to stdout from library code; take an io.Writer", name)
				}
			case *ast.CallExpr:
				id, ok := e.Fun.(*ast.Ident)
				if !ok {
					return true
				}
				if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin &&
					(id.Name == "print" || id.Name == "println") {
					p.Reportf(e.Pos(), "builtin %s writes to stderr from library code", id.Name)
				}
			}
			return true
		})
	},
}
