// Command repolint runs the repository's domain-aware static-analysis
// suite (internal/lint) over every package of the module and prints
// file:line:col diagnostics.
//
// Usage:
//
//	repolint [-rules] [module-root]
//
// The module root defaults to the current directory (it must hold
// go.mod). Every analyzer runs in one pass: the per-package rules, then
// digesttaint over the whole-module callgraph. Exit status is 0 when
// the tree is diagnostic-clean, 1 when diagnostics were reported, and 2
// on a load or type-check failure.
//
// Suppress a finding site-by-site with a mandatory reason:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed on the flagged line or the line above it. Unjustified or
// stale suppressions are themselves diagnostics.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repolint [-rules] [module-root]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, lint.Analyzers(), lint.DefaultConfig())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d diagnostics\n", len(diags))
		os.Exit(1)
	}
}
