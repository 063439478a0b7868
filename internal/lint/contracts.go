package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The interprocedural analyzers key off contracts declared in doc
// comments rather than hard-coded type lists, so the corpus, the live
// tree, and any future subsystem opt in the same way:
//
//   - a type whose doc contains "single-owner" or "not safe for
//     concurrent use" is GUARDED: exactly one goroutine may mutate it
//     after construction (ownership);
//   - a struct type whose name ends in "Snapshot" or whose doc
//     contains "immutable after publish" is a SNAPSHOT: once returned
//     to a reader it must not alias any mutable state (snapescape);
//   - a slice field whose comment contains "append-only" is
//     APPEND-ONLY: the only write to it, once anything else can see
//     it, is x.F = append(x.F, ...), so a capacity-clamped prefix
//     x.F[:n:n] is as good as a copy and a snapshot may hold one;
//   - a type whose doc contains "immutable after construction" is
//     IMMUTABLE: nothing reachable from a value is written once the
//     function that built it returns, so a snapshot may share one.

// flatDoc lower-cases a doc comment and collapses all whitespace so
// markers match across line breaks.
func flatDoc(doc string) string {
	return strings.Join(strings.Fields(strings.ToLower(doc)), " ")
}

// guardedTypes returns the module's single-owner types in node order.
func guardedTypes(m *Module) []*types.Named {
	var out []*types.Named
	for _, named := range m.named {
		doc := flatDoc(m.docOf(named))
		if strings.Contains(doc, "single-owner") || strings.Contains(doc, "not safe for concurrent use") {
			out = append(out, named)
		}
	}
	return out
}

// snapshotTypes returns the module's publish-frozen view types.
func snapshotTypes(m *Module) map[*types.Named]bool {
	out := map[*types.Named]bool{}
	for _, named := range m.named {
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		if strings.HasSuffix(named.Obj().Name(), "Snapshot") ||
			strings.Contains(flatDoc(m.docOf(named)), "immutable after publish") {
			out[named] = true
		}
	}
	return out
}

// appendOnlyFields returns the module's append-only slice fields.
func appendOnlyFields(m *Module) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				st, ok := x.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !strings.Contains(flatDoc(field.Doc.Text()+" "+field.Comment.Text()), "append-only") {
						continue
					}
					for _, name := range field.Names {
						v, _ := pkg.Info.Defs[name].(*types.Var)
						if v == nil {
							continue
						}
						if _, ok := v.Type().Underlying().(*types.Slice); ok {
							out[v] = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// immutableTypes returns the module's immutable-after-construction
// types.
func immutableTypes(m *Module) map[*types.Named]bool {
	out := map[*types.Named]bool{}
	for _, named := range m.named {
		if strings.Contains(flatDoc(m.docOf(named)), "immutable after construction") {
			out[named] = true
		}
	}
	return out
}

// namedOf unwraps one pointer and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// typeContainsNamed reports whether values of t embed or reach target
// structurally (directly, through a pointer, aggregate element, struct
// field, or tuple component).
func typeContainsNamed(t types.Type, target *types.Named, depth int) bool {
	if t == nil || depth > 5 {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		if named.Origin() == target.Origin() {
			return true
		}
		return typeContainsNamed(named.Underlying(), target, depth+1)
	}
	switch u := t.(type) {
	case *types.Pointer:
		return typeContainsNamed(u.Elem(), target, depth+1)
	case *types.Slice:
		return typeContainsNamed(u.Elem(), target, depth+1)
	case *types.Array:
		return typeContainsNamed(u.Elem(), target, depth+1)
	case *types.Map:
		return typeContainsNamed(u.Elem(), target, depth+1)
	case *types.Chan:
		return typeContainsNamed(u.Elem(), target, depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeContainsNamed(u.Field(i).Type(), target, depth+1) {
				return true
			}
		}
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if typeContainsNamed(u.At(i).Type(), target, depth+1) {
				return true
			}
		}
	}
	return false
}
