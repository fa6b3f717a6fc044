// Package golint — working name rilvet — is a static analysis
// framework for this repository's own Go source, the sibling of
// internal/netlint: netlint enforces invariants of the *netlists* the
// tools produce, rilvet enforces invariants of the *Go code* that
// produces them. Both follow the go/analysis driver pattern — each
// check is an *Analyzer with a name, a doc string and a Run function;
// a driver runs a configurable set of analyzers over one loaded
// package and aggregates Findings with deterministic ordering, which
// the CLI prints one per line.
//
// The analyzers encode correctness properties the reproduction's
// headline guarantees depend on, not general style:
//
//   - rand-global: no math/rand global source in non-test code, so
//     every simulation, attack and fuzz reproduction is replayable
//     from a logged seed (folded in from the former cmd/repolint).
//   - map-order: no map iteration order leaking into slices, writer
//     output or hashes without an intervening sort — the sweep
//     runner's deterministic result order and the journal's
//     bit-identical replay both die by nondeterministic iteration.
//   - time-seed: no wall clock feeding seed material in the
//     determinism-critical packages (attack, sweep, netlist, report).
//   - sync-errcheck: no discarded (*os.File).Sync/Close error on a
//     write path — the crash-safety story of the DIP journal and the
//     sweep checkpoint manifest is only as strong as the weakest
//     unchecked close.
//   - ctx-loop: exported functions with unbounded loops must be
//     cancellable (accept a context or observably check one).
//   - goroutine-hygiene: goroutine literals must not leak panics past
//     the sweep's isolation, and channel sends in cancellable loops
//     must select on ctx/done.
//   - mutex-oracle: no mutex held across a call into the attack
//     oracle/solver entry points, where a single query can run for
//     seconds and a held lock serializes the whole sweep pool.
//
// False positives are silenced per line with a mandatory-reason
// suppression comment:
//
//	//rilvet:ignore <rule>[,<rule>] <reason>
//
// on the finding's line or alone on the line above. A suppression
// without a reason, or naming an unknown rule, is itself a finding
// (rule "suppress") that cannot be suppressed. See DESIGN.md §11 for
// the two-layer lint architecture and the suppression policy.
//
// rilvet is built on the standard library only (go/parser, go/types,
// go/importer) — it must keep working in the dependency-free build
// environment, so golang.org/x/tools is off limits.
package golint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Analyzer is one static check, in the style of go/analysis and
// internal/netlint: Run inspects the loaded package in *Pass and
// reports findings through Pass.Report. A non-nil error from Run means
// the analyzer itself failed (a driver problem, not a code finding)
// and aborts the whole run.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Finding is one diagnostic of one analyzer, keyed by rule, file and
// line. Suppressed findings are retained (-show-suppressed prints
// them) but do not affect the exit code.
type Finding struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
	// Suppressed marks a finding silenced by a //rilvet:ignore
	// comment; Reason carries the comment's mandatory justification.
	Suppressed bool
	Reason     string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", f.Reason)
	}
	return s
}

// Options configures a driver run.
type Options struct {
	// IncludeTests lints _test.go files too. Off by default: the
	// invariants guard production determinism and durability; tests
	// legitimately use the patterns the analyzers forbid.
	IncludeTests bool
	// DeterminismPkgs restricts the time-seed analyzer to packages
	// whose import path contains one of these substrings. Empty means
	// the repo's determinism-critical set: internal/attack,
	// internal/sweep, internal/netlist, internal/report.
	DeterminismPkgs []string
	// DurableTypes lists named types (as "pkgpath.Type") whose Close
	// error must always be observed, wherever the value came from.
	// Empty means the repo's durable writers: the attack DIP journal.
	DurableTypes []string
}

func (o Options) determinismPkgs() []string {
	if len(o.DeterminismPkgs) > 0 {
		return o.DeterminismPkgs
	}
	return []string{"internal/attack", "internal/sweep", "internal/netlist", "internal/report"}
}

func (o Options) durableTypes() []string {
	if len(o.DurableTypes) > 0 {
		return o.DurableTypes
	}
	return []string{"repro/internal/attack.Journal"}
}

// Pass carries one analyzer's view of one loaded package: the file
// set, the parsed files, best-effort type information, and the
// reporting sink.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Path is the package's import-ish path (the directory as given
	// to the loader); used by analyzers that scope themselves to
	// particular packages.
	Path string
	// Pkg and Info hold go/types results. Type checking is
	// best-effort: on a type-check failure Info's maps are partially
	// populated and TypesErr records the first error. Analyzers must
	// degrade gracefully (treat unknown types as "not a match").
	Pkg      *types.Package
	Info     *types.Info
	TypesErr error
	Opts     Options

	analyzer string
	findings []Finding
}

// Report records a finding at pos under the running analyzer's rule.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.ReportRule(p.analyzer, pos, format, args...)
}

// ReportRule records a finding under an explicit rule name (the driver
// uses it for the synthetic "suppress" rule).
func (p *Pass) ReportRule(rule string, pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Rule:    rule,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expr, or nil when type information is
// unavailable.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(expr)
}

// ObjectOf resolves an identifier to its object (definition or use),
// or nil.
func (p *Pass) ObjectOf(ident *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if obj := p.Info.ObjectOf(ident); obj != nil {
		return obj
	}
	return nil
}

// IsType reports whether expr's type (after pointer indirection)
// prints as the given qualified name, e.g. "os.File" or
// "sync.Mutex".
func (p *Pass) IsType(expr ast.Expr, qualified string) bool {
	return typeIs(p.TypeOf(expr), qualified)
}

// typeIs matches t (after pointer indirection) against a
// "pkgpath.Name"-suffixed qualified type name.
func typeIs(t types.Type, qualified string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	return full == qualified || strings.HasSuffix(full, "/"+qualified)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// Result aggregates one driver run over one package.
type Result struct {
	Package   string
	Analyzers []string
	Findings  []Finding
}

// Unsuppressed returns the findings not silenced by a suppression
// comment — the ones that gate the exit code.
func (r *Result) Unsuppressed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// WriteText renders the result human-readably, one finding per line.
// Suppressed findings are included only when showSuppressed is set.
func (r *Result) WriteText(w io.Writer, showSuppressed bool) error {
	for _, f := range r.Findings {
		if f.Suppressed && !showSuppressed {
			continue
		}
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// Determinism returns the analyzers guarding replayability: no global
// rand, no map-order leaks, no wall-clock seeds.
func Determinism() []*Analyzer {
	return []*Analyzer{RandGlobal, MapOrder, TimeSeed}
}

// Concurrency returns the analyzers guarding the sweep pool and the
// future serving daemon: cancellable loops, hygienic goroutines, no
// locks held across oracle calls.
func Concurrency() []*Analyzer {
	return []*Analyzer{CtxLoop, GoroutineHygiene, MutexOracle}
}

// Durability returns the analyzers guarding the crash-safety layer:
// checked Sync/Close on write paths.
func Durability() []*Analyzer {
	return []*Analyzer{SyncErrcheck}
}

// All returns every built-in analyzer, sorted by name.
func All() []*Analyzer {
	as := append(append(Determinism(), Concurrency()...), Durability()...)
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ByName resolves analyzer names against the built-in set.
func ByName(names ...string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("golint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// KnownRule reports whether name is a built-in analyzer name or the
// synthetic "suppress" rule.
func KnownRule(name string) bool {
	if name == SuppressRule {
		return true
	}
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Run executes the analyzers (all of them when none are given) over
// one loaded package and returns the aggregated, deterministically
// sorted result. Findings are ordered by (file, line, col, rule,
// message); each distinct finding is reported once even when an
// analyzer is registered twice, mirroring internal/netlint.Run.
// Suppression comments are applied after analysis: matching findings
// are marked Suppressed, malformed suppressions become findings of
// the synthetic "suppress" rule.
func Run(pkg *Package, opts Options, analyzers ...*Analyzer) (*Result, error) {
	if len(analyzers) == 0 {
		analyzers = All()
	}
	pass := &Pass{
		Fset: pkg.Fset, Files: pkg.Files, Path: pkg.Path,
		Pkg: pkg.Types, Info: pkg.Info, TypesErr: pkg.TypesErr,
		Opts: opts,
	}
	res := &Result{Package: pkg.Path}
	ran := map[string]bool{}
	for _, a := range analyzers {
		if ran[a.Name] {
			continue // double registration: run and report once
		}
		ran[a.Name] = true
		pass.analyzer = a.Name
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("golint: analyzer %s: %w", a.Name, err)
		}
		res.Analyzers = append(res.Analyzers, a.Name)
	}
	applySuppressions(pass, pkg)
	sort.SliceStable(pass.findings, func(i, j int) bool {
		a, b := pass.findings[i], pass.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	sort.Strings(res.Analyzers)
	res.Findings = dedupeFindings(pass.findings)
	return res, nil
}

// dedupeFindings drops adjacent duplicates of the (rule, file, line,
// col, message) identity from a sorted finding list.
func dedupeFindings(fs []Finding) []Finding {
	out := fs[:0]
	for _, f := range fs {
		if len(out) > 0 {
			prev := out[len(out)-1]
			if f.Rule == prev.Rule && f.File == prev.File && f.Line == prev.Line &&
				f.Col == prev.Col && f.Message == prev.Message {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}
