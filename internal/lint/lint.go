// Package lint is the simulator's first-party static-analysis suite.
//
// The reproduction's headline numbers are trustworthy only because a run
// is a pure function of (config, seed): the pinned digests, the
// content-addressed run cache, and crash-resume all replay on that
// assumption. The runtime layers (digest tests, -cache-verify, the audit
// hooks) catch drift after it happens; this package catches the usual
// sources of drift at compile time:
//
//   - simdeterminism: no wall clock or global math/rand in the
//     deterministic core; wall reads that provably flow only to
//     telemetry sinks are exempt (dataflow-based).
//   - maporder: no order-dependent work inside `range` over a map.
//   - unitsafety: no bare numeric literals or cross-unit conversions
//     where units.* quantities are expected.
//   - digestfield: every exported config field is visible to the
//     runcache digest or explicitly ignored.
//   - eventcapture: hot paths use the pooled kernel's Actor dispatch,
//     not closure posting, and never compare Event handles.
//   - slabescape: no pointer or subslice into a tcp.Slab column is
//     retained across anything that can reach addRow, whose append
//     reallocation would invalidate it (dataflow-based).
//
// The analyzers mirror the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but are built purely on the standard
// library so the module stays dependency-free; the flow-aware checks
// share the intraprocedural engine in dataflow.go. cmd/buflint
// assembles the suite into a vettool speaking the `go vet -vettool`
// protocol.
//
// Intentional exceptions are suppressed in source with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on, or on the line before, the offending line. A directive without a
// reason is itself a diagnostic (lintdirective), and so is a directive
// whose finding no longer fires (lintstale): suppressions may only
// cover live findings, so the count can only shrink.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Analyzer is one static check. It mirrors the x/tools analysis.Analyzer
// surface that cmd/buflint and linttest need, so the suite can migrate to
// the upstream framework without touching the checks themselves.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// AppliesTo reports whether the analyzer should run on the package
	// with the given import path. A nil AppliesTo runs everywhere. The
	// test harness bypasses this so fixtures can live in synthetic
	// packages.
	AppliesTo func(pkgPath string) bool

	// Run performs the analysis and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// PkgPath is the import path being analyzed, normalized (test
	// variant suffixes stripped).
	PkgPath string

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned by token.Pos within the pass's
// file set.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Finding is a rendered diagnostic, positioned absolutely and carrying a
// stable fingerprint.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string

	// Fingerprint identifies the finding across unrelated edits: an
	// FNV-64a hash of (package, analyzer, file, enclosing function,
	// message), deliberately excluding line and column so findings keep
	// their identity as code moves around them.
	Fingerprint string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// AnalyzerTiming is one analyzer's wall-time cost over one package (or,
// aggregated by the callers, a whole run). Reported in buflint's -json
// output so the blocking CI lint job's budget is observable.
type AnalyzerTiming struct {
	Analyzer string
	Elapsed  time.Duration
}

// Analyzers returns the full buflint suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		MapOrder,
		UnitSafety,
		DigestField,
		EventCapture,
		SlabEscape,
	}
}

// NormalizePkgPath strips the " [pkg.test]" variant suffix go vet appends
// to import paths of packages rebuilt for testing.
func NormalizePkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return path
}

// RunAnalyzers runs the given analyzers over one type-checked package and
// returns the surviving findings; see RunAnalyzersTimed.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, pkgPath string, analyzers []*Analyzer) ([]Finding, error) {
	findings, _, err := RunAnalyzersTimed(fset, files, pkg, info, pkgPath, analyzers)
	return findings, err
}

// RunAnalyzersTimed runs the given analyzers over one type-checked
// package and returns the surviving findings plus per-analyzer timings:
// suppression directives are honored, diagnostics in _test.go files are
// dropped (the determinism contract binds the simulator, not its tests),
// malformed directives are reported under the pseudo-analyzer
// "lintdirective", and directives that suppressed nothing even though
// every analyzer they name ran are reported under "lintstale". Findings
// are sorted by position.
func RunAnalyzersTimed(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, pkgPath string, analyzers []*Analyzer) ([]Finding, []AnalyzerTiming, error) {
	pkgPath = NormalizePkgPath(pkgPath)
	var diags []Diagnostic
	var timings []AnalyzerTiming
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.AppliesTo != nil && !a.AppliesTo(pkgPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			PkgPath:  pkgPath,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		start := time.Now()
		err := a.Run(pass)
		timings = append(timings, AnalyzerTiming{Analyzer: a.Name, Elapsed: time.Since(start)})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	idx := newIgnoreIndex(fset, files)
	var out []Finding
	emit := func(pos token.Position, analyzer, message string) {
		out = append(out, Finding{
			Position:    pos,
			Analyzer:    analyzer,
			Message:     message,
			Fingerprint: fingerprint(files, fset, pkgPath, pos, analyzer, message),
		})
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		if idx.suppressed(d.Analyzer, pos) {
			continue
		}
		emit(pos, d.Analyzer, d.Message)
	}
	for _, bad := range idx.malformed {
		pos := fset.Position(bad)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		emit(pos, "lintdirective", "malformed //lint:ignore directive: want //lint:ignore <analyzer> <reason>")
	}
	for _, d := range idx.stale(ran) {
		pos := fset.Position(d.pos)
		emit(pos, "lintstale", fmt.Sprintf("stale //lint:ignore %s directive: no suppressed finding fires here anymore; delete it", d.names()))
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, timings, nil
}

// fingerprint hashes the position-independent identity of a finding.
// Line and column stay out of the hash so unrelated edits above a
// finding don't change its identity; the enclosing function name keeps
// two same-message findings in different functions distinct.
func fingerprint(files []*ast.File, fset *token.FileSet, pkgPath string, pos token.Position, analyzer, message string) string {
	fn := ""
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil || tf.Name() != pos.Filename {
			continue
		}
		if pos.Offset >= 0 && pos.Offset < tf.Size() {
			fn = enclosingFuncName([]*ast.File{f}, tf.Pos(pos.Offset))
		}
		break
	}
	h := fnv.New64a()
	for _, part := range []string{pkgPath, analyzer, filepath.Base(pos.Filename), fn, message} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
