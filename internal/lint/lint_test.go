package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wantRe extracts the expectation from a `// want "regex"` comment in
// a corpus file.
var wantRe = regexp.MustCompile(`//\s*want "(.*)"`)

// expectation is one parsed want comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans a corpus package for want comments.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// loadCorpus loads testdata/src/<name> under the given vanity import
// path.
func loadCorpus(t *testing.T, name, importPath string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), importPath)
	if err != nil {
		t.Fatalf("load corpus %s: %v", name, err)
	}
	return pkg
}

// checkAgainstWants verifies that diagnostics and want comments match
// one-to-one by (file, line): every diagnostic needs a matching want on
// its line, every want needs a matching diagnostic.
func checkAgainstWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, d := range diags {
		text := d.Rule + ": " + d.Message
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

// analyzerByName fetches one analyzer from the suite.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// TestAnalyzerCorpora runs each analyzer alone over its golden corpus:
// the known-bad snippets must produce exactly the diagnostics the want
// comments record, and the known-clean snippets in the same files must
// stay silent. Every corpus directory must belong to a live analyzer
// (or be the directives corpus), so a corpus cannot outlive its rule.
func TestAnalyzerCorpora(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	names := AnalyzerNames()
	for _, e := range entries {
		if !names[e.Name()] && e.Name() != "directives" {
			t.Errorf("testdata/src/%s is neither a live analyzer's corpus nor the directives corpus", e.Name())
		}
	}
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadCorpus(t, a.Name, "example.com/corpus/"+a.Name)
			diags := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, a.Name)}, nil)
			if len(diags) == 0 {
				t.Fatalf("corpus produced no diagnostics; the %s analyzer no longer fires on known-bad input", a.Name)
			}
			checkAgainstWants(t, pkg, diags)
		})
	}
}

// TestDirectives exercises the suppression machinery over its corpus:
// justified suppressions (leading and trailing form) silence findings,
// while missing reasons, unknown rule names, and stale directives are
// reported as lintdirective diagnostics.
func TestDirectives(t *testing.T) {
	pkg := loadCorpus(t, "directives", "example.com/corpus/directives")
	diags := Run([]*Package{pkg}, Analyzers(), nil)

	type want struct {
		rule   string
		substr string
	}
	wants := []want{
		{"lintdirective", "missing reason"},
		{"wallclock", "time.Now"}, // the broken directive above it must not suppress
		{"lintdirective", `unknown rule "nosuchrule"`},
		{"lintdirective", "unused suppression for wallclock"},
	}
	if len(diags) != len(wants) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(wants))
	}
	for i, w := range wants {
		d := diags[i]
		if d.Rule != w.rule || !strings.Contains(d.Message, w.substr) {
			t.Errorf("diagnostic %d = %s, want rule %s containing %q", i, d, w.rule, w.substr)
		}
	}
}

// TestConfigScoping verifies per-package rule scoping: the same
// wall-clock corpus is clean when loaded under an import path outside
// the rule's scope and dirty when loaded inside it.
func TestConfigScoping(t *testing.T) {
	cfg := DefaultConfig()

	out := loadCorpus(t, "wallclock", "repro/cmd/somebin")
	if diags := Run([]*Package{out}, Analyzers(), cfg); len(diags) != 0 {
		t.Errorf("out-of-scope package produced %d diagnostics: %v", len(diags), diags)
	}

	in := loadCorpus(t, "wallclock", "repro/internal/sim")
	diags := Run([]*Package{in}, Analyzers(), cfg)
	if len(diags) != 3 {
		t.Errorf("in-scope package produced %d wallclock diagnostics, want 3: %v", len(diags), diags)
	}
}

// TestMatchPath pins the pattern syntax: exact match, and "/..."
// prefix match that does not leak across path-segment boundaries.
func TestMatchPath(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"repro/internal/core", "repro/internal/core", true},
		{"repro/internal/core", "repro/internal/core2", false},
		{"repro/internal/...", "repro/internal/core", true},
		{"repro/internal/...", "repro/internal", true},
		{"repro/internal/...", "repro/internals", false},
		{"repro/cmd/...", "repro/cmd/hadard", true},
	}
	for _, c := range cases {
		if got := matchPath(c.pattern, c.path); got != c.want {
			t.Errorf("matchPath(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

// TestRepositoryClean asserts the live tree is diagnostic-clean under
// the default configuration, so a regression fails `go test`, not just
// `make lint`, and that every scope the configuration names still
// matches a package.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk is broken", len(pkgs))
	}
	diags := Run(pkgs, Analyzers(), DefaultConfig())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d diagnostics in the live tree; fix them or add a justified //lint:ignore", len(diags))
	}

	// A scope entry naming a package that no longer exists silently
	// scopes a rule to nothing: every exact path must name a loaded
	// package and every "/..." pattern must match at least one.
	cfg := DefaultConfig()
	scopes := map[string][]string{"schedulerPath": schedulerPath, "reportingPath": reportingPath}
	for rule, patterns := range cfg.Only {
		scopes["Only["+rule+"]"] = patterns
	}
	for rule, patterns := range cfg.Skip {
		scopes["Skip["+rule+"]"] = patterns
	}
	for where, patterns := range scopes {
		for _, pattern := range patterns {
			if !slices.ContainsFunc(pkgs, func(pkg *Package) bool { return matchPath(pattern, pkg.Path) }) {
				t.Errorf("%s names %q, which matches no package in the module", where, pattern)
			}
		}
	}
}

// TestAnalyzerMetadata keeps names and docs well-formed: lower-case
// single-token names (they double as suppression keys) and non-empty
// docs for `repolint -rules`.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || strings.ToLower(a.Name) != a.Name || strings.ContainsAny(a.Name, " ,\t") {
			t.Errorf("analyzer name %q must be lower-case with no spaces or commas", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		if a.Name == "lintdirective" {
			t.Errorf("lintdirective is reserved for the suppression machinery")
		}
	}
}
