// Package lint is a zero-dependency, domain-aware static-analysis
// engine for this repository, built directly on the standard library's
// go/parser + go/types stack (no golang.org/x/tools).
//
// The analyzers encode the properties the scheduler's correctness
// story leans on and that no test can reliably flag when they rot:
//
//   - determinism: the golden schedule digests and the differential /
//     metamorphic oracles (internal/conformance) require bit-identical
//     replays, which a single wall-clock read, global-RNG call, or
//     unsorted map iteration silently destroys — inside the scheduler
//     path (the per-package rules) and anywhere on a dataflow path
//     into a digest fold (digesttaint, the one whole-module rule);
//   - numeric safety: the dual-price arithmetic (Eq. 5-8) is exact
//     float math compared against tolerances — raw ==/!= between
//     floats and undocumented cross-round accumulation are bugs in
//     waiting;
//   - concurrency hygiene: the scheduler service, its federation and
//     the web front door share state across goroutines; an unpaired
//     Lock/Unlock is how that breaks (copied locks are go vet's
//     copylocks check, which `make lint` runs first);
//   - API discipline: library code must not panic outside the
//     designated invariant-violation hook (internal/bug) and must not
//     write to stdout outside cmd/.
//
// Snapshot sharing and single-goroutine ownership are not checked
// here: the tests that drive published snapshots and the service loop
// catch every seeded break of those contracts (DESIGN.md §15).
//
// Diagnostics are suppressed site-by-site with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// where the reason is mandatory: a suppression without one is itself a
// diagnostic. A directive covers its own source line and the line
// immediately below it, so it works both as a trailing comment and as
// a comment line above the flagged statement. Unused directives are
// reported too, so stale suppressions cannot accumulate.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass is the per-(package, analyzer) context handed to Analyzer.Run.
type Pass struct {
	Pkg  *Package
	diag *[]Diagnostic
	rule string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diag = append(*p.diag, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass is the whole-module context handed to
// Analyzer.RunModule: the callgraph plus the active config, so a
// module rule can both scope its findings and avoid double-reporting
// sites the per-package rules already cover.
type ModulePass struct {
	Mod  *Module
	Cfg  *Config
	diag *[]Diagnostic
	rule string
}

// Reportf records a diagnostic at pos, attributed to pkg; findings in
// packages outside the rule's configured scope are dropped.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	if !p.Cfg.inScope(p.rule, pkg.Path) {
		return
	}
	*p.diag = append(*p.diag, Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named rule: either a per-package syntactic rule
// (Run) or a whole-module interprocedural rule (RunModule).
type Analyzer struct {
	// Name is the rule name used in diagnostics and suppression
	// directives (short, lower-case, no spaces).
	Name string
	// Doc is a one-paragraph description of what the rule enforces and
	// why, shown by `repolint -rules`.
	Doc string
	// Run inspects one type-checked package and reports findings.
	Run func(p *Pass)
	// RunModule inspects the whole loaded module at once, with the
	// callgraph available. Exactly one of Run and RunModule is set.
	RunModule func(p *ModulePass)
}

// Config scopes rules to package paths. Paths are import paths; a
// pattern ending in "/..." matches the prefix, anything else matches
// exactly.
type Config struct {
	// Only restricts a rule to the listed patterns. A rule with no
	// entry runs everywhere. An empty (non-nil) list disables the rule.
	Only map[string][]string
	// Skip exempts the listed patterns from a rule, applied after Only.
	Skip map[string][]string
}

// matchPath reports whether the import path matches the pattern.
func matchPath(pattern, path string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return path == pattern
}

func matchAny(patterns []string, path string) bool {
	for _, p := range patterns {
		if matchPath(p, path) {
			return true
		}
	}
	return false
}

// inScope reports whether the rule applies to the package path under
// the config.
func (c *Config) inScope(rule, path string) bool {
	if c == nil {
		return true
	}
	if only, ok := c.Only[rule]; ok && !matchAny(only, path) {
		return false
	}
	if matchAny(c.Skip[rule], path) {
		return false
	}
	return true
}

// schedulerPath lists the packages whose behavior feeds the schedule
// digests: any nondeterminism here changes golden tests, differential
// runs, and the paper's reported numbers.
var schedulerPath = []string{
	"repro/internal/core",
	"repro/internal/sim",
	"repro/internal/sched",
	"repro/internal/gavel",
	"repro/internal/tiresias",
	"repro/internal/yarncs",
	"repro/internal/policy",
	"repro/internal/invariant",
	"repro/internal/trace",
	"repro/internal/eventq",
	"repro/internal/cluster",
	"repro/internal/federation",
}

// reportingPath lists packages whose *output* must be reproducible run
// to run (metrics tables, the experiments' figures and CSV rows,
// dashboard rendering, the service's snapshots), even though they are
// not priced into the schedule itself. service belongs here, not in
// schedulerPath: its snapshots must replay identically, but its pacing
// (wall-clock rounds, admission timeouts) is legitimately real-time.
// wal is here too: its frames and checkpoints must be
// byte-reproducible, but fsync pacing (group-commit deadlines) is
// wall-clock by nature, so it stays out of the wallclock rule's scope
// below, as does experiments, whose Fig. 7 times decisions.
var reportingPath = []string{
	"repro/internal/metrics",
	"repro/internal/experiments",
	"repro/internal/web",
	"repro/internal/service",
	"repro/internal/stats",
	"repro/internal/wal",
}

// DefaultConfig returns the repository's rule scoping.
func DefaultConfig() *Config {
	detScope := append(append([]string(nil), schedulerPath...), reportingPath...)
	return &Config{
		Only: map[string][]string{
			// Wall-clock reads are forbidden where simulated time is the
			// only legitimate clock. Of reportingPath only metrics is in
			// scope: service and wal pace rounds, timeouts and fsyncs on
			// the wall clock by design, and experiments times Fig. 7.
			//
			// The linter lints itself: analyzer output ordering must be
			// deterministic (findings are diffed in CI), so the wall
			// clock, map ranges and global rand are policed here too.
			// offline's brute force and replay must also be: their
			// slot order and first error may not vary run to run.
			"wallclock": append(append([]string(nil), schedulerPath...),
				"repro/internal/metrics", "repro/internal/lint"),
			"globalrand": append(append([]string(nil), detScope...), "repro/internal/lint", "repro/internal/offline"),
			"maprange":   append(append([]string(nil), detScope...), "repro/internal/lint", "repro/internal/offline"),
			// Cross-round accumulation matters where exact conservation
			// and dual-price arithmetic live.
			"floataccum": {"repro/internal/core", "repro/internal/invariant", "repro/internal/sim"},
			"floateq":    {"repro/internal/..."},
			"panicrule":  {"repro/internal/..."},
		},
		Skip: map[string][]string{
			// internal/bug is the designated invariant-violation hook.
			"panicrule": {"repro/internal/bug"},
			// Binaries own their stdout.
			"printrule": {"repro/cmd/..."},
		},
	}
}

// Analyzers returns the full rule suite in a stable order: the
// per-package rules, then the module rule.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerWallClock,
		analyzerGlobalRand,
		analyzerMapRange,
		analyzerFloatEq,
		analyzerFloatAccum,
		analyzerDeferUnlock,
		analyzerPanic,
		analyzerPrint,
		analyzerDigestTaint,
	}
}

// AnalyzerNames returns the rule names, for directive validation.
func AnalyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos    token.Position
	rules  map[string]bool
	reason string
	broken string // non-empty: malformed, with the problem text
	used   bool
}

// parseDirectives extracts //lint:ignore directives from a file,
// validating rule names against known.
func parseDirectives(fset *token.FileSet, f *ast.File, known map[string]bool) []*directive {
	var out []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // /* */ comments cannot carry directives
			}
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "lint:ignore")
			if !ok {
				continue
			}
			d := &directive{pos: fset.Position(c.Pos()), rules: map[string]bool{}}
			fields := strings.Fields(rest)
			switch {
			case len(fields) == 0:
				d.broken = "missing rule name and reason"
			case len(fields) == 1:
				d.broken = "missing reason (a justification is mandatory)"
			default:
				for _, r := range strings.Split(fields[0], ",") {
					if !known[r] {
						d.broken = fmt.Sprintf("unknown rule %q", r)
						break
					}
					d.rules[r] = true
				}
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// Run executes the analyzers over the packages under the config and
// returns the surviving diagnostics sorted by position: findings not
// covered by a directive, malformed directives, and unused directives.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	// Directive rule names validate against the full suite, not just
	// the analyzers running now, so running a subset does not report
	// suppressions of the other rules as unknown.
	known := AnalyzerNames()
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}

	var raw []Diagnostic
	var mod *Module
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				if !cfg.inScope(a.Name, pkg.Path) {
					continue
				}
				a.Run(&Pass{Pkg: pkg, diag: &raw, rule: a.Name})
			}
		}
		if a.RunModule != nil {
			if mod == nil {
				mod = BuildModule(pkgs)
			}
			a.RunModule(&ModulePass{Mod: mod, Cfg: cfg, diag: &raw, rule: a.Name})
		}
	}

	// Index directives by (file, line): a directive covers its own line
	// and the next one.
	type key struct {
		file string
		line int
	}
	byLine := map[key][]*directive{}
	var dirs []*directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range parseDirectives(pkg.Fset, f, known) {
				dirs = append(dirs, d)
				if d.broken != "" {
					continue
				}
				byLine[key{d.pos.Filename, d.pos.Line}] = append(byLine[key{d.pos.Filename, d.pos.Line}], d)
				byLine[key{d.pos.Filename, d.pos.Line + 1}] = append(byLine[key{d.pos.Filename, d.pos.Line + 1}], d)
			}
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		suppressed := false
		for _, dir := range byLine[key{d.Pos.Filename, d.Pos.Line}] {
			if dir.rules[d.Rule] {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, d := range dirs {
		// A directive for rules that are not all running now cannot be
		// judged stale: the run that includes them owns it.
		allRunning := true
		for _, r := range sortedRules(d.rules) {
			if !running[r] {
				allRunning = false
			}
		}
		switch {
		case d.broken != "":
			out = append(out, Diagnostic{Pos: d.pos, Rule: "lintdirective",
				Message: "malformed //lint:ignore: " + d.broken})
		case !d.used && allRunning:
			out = append(out, Diagnostic{Pos: d.pos, Rule: "lintdirective",
				Message: fmt.Sprintf("unused suppression for %s (no matching diagnostic on this or the next line)",
					strings.Join(sortedRules(d.rules), ","))})
		}
	}

	return sortDiagnostics(out)
}

// sortedRules returns a directive's rule names in sorted order.
func sortedRules(rules map[string]bool) []string {
	out := make([]string, 0, len(rules))
	for r := range rules {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func sortDiagnostics(out []Diagnostic) []Diagnostic {
	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), cmp.Compare(a.Rule, b.Rule))
	})
	return out
}
