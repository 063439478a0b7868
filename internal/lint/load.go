package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute directory.
	Dir string
	// Fset is the file set shared by every package of the load.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's resolution results.
	Info *types.Info
}

// TypeOf is a nil-safe Info.TypeOf.
func (p *Package) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// entry is one parsed-but-not-yet-checked package directory.
type entry struct {
	path  string
	dir   string
	files []*ast.File
	pkg   *Package // set once type-checked
}

// loader type-checks module packages on demand, resolving module
// imports to its own entries and everything else (the standard
// library) through a source importer rooted at GOROOT.
type loader struct {
	fset     *token.FileSet
	entries  map[string]*entry
	std      types.Importer
	checking map[string]bool
}

// Import implements types.Importer for the type-checker's benefit.
func (l *loader) Import(path string) (*types.Package, error) {
	if e, ok := l.entries[path]; ok {
		p, err := l.check(e)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// check type-checks one entry, memoized, with import-cycle detection.
func (l *loader) check(e *entry) (*Package, error) {
	if e.pkg != nil {
		return e.pkg, nil
	}
	if l.checking[e.path] {
		return nil, fmt.Errorf("lint: import cycle through %s", e.path)
	}
	l.checking[e.path] = true
	defer delete(l.checking, e.path)

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(e.path, l.fset, e.files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", e.path, err)
	}
	e.pkg = &Package{Path: e.path, Dir: e.dir, Fset: l.fset, Files: e.files, Types: tp, Info: info}
	return e.pkg, nil
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// parseDir parses every non-test .go file of one directory, sorted by
// name so positions and diagnostics are stable.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		n := de.Name()
		if de.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadModule parses and type-checks every package of the module rooted
// at root (the directory holding go.mod), excluding test files,
// testdata, and hidden directories. Packages come back sorted by
// import path.
func LoadModule(root string) ([]*Package, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:     fset,
		entries:  map[string]*entry{},
		std:      importer.ForCompiler(fset, "source", nil),
		checking: map[string]bool{},
	}
	err = filepath.WalkDir(abs, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() {
			return nil
		}
		name := de.Name()
		if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		files, err := parseDir(fset, path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		imp := mod
		if rel != "." {
			imp = mod + "/" + filepath.ToSlash(rel)
		}
		l.entries[imp] = &entry{path: imp, dir: path, files: files}
		return nil
	})
	if err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(l.entries))
	for p := range l.entries {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.check(l.entries[p])
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks a single directory as one package
// under the given import path (stdlib imports only) — the entry point
// the golden-file test corpus uses, where the vanity import path
// places the package in or out of a rule's scope.
func LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files, err := parseDir(fset, abs)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", abs)
	}
	l := &loader{
		fset:     fset,
		entries:  map[string]*entry{importPath: {path: importPath, dir: abs, files: files}},
		std:      importer.ForCompiler(fset, "source", nil),
		checking: map[string]bool{},
	}
	return l.check(l.entries[importPath])
}
