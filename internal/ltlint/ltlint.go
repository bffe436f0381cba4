// Package ltlint implements LittleTable's project-specific static
// analyzers: machine checks for the discipline rules the paper's guarantees
// rest on. The engine promises prefix durability in insertion order (§5)
// and crash recovery without a WAL; those proofs hold only if every byte of
// file I/O flows through internal/vfs (so FaultFS and the crash harness see
// it), every sync/rename/descriptor-commit error is checked, query contexts
// are threaded core→tablet→vfs, and no goroutine blocks on a channel while
// holding the table mutex. Generic linters cannot express these rules;
// ltlint can.
//
// The package mirrors the spirit of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, testdata fixtures with want comments) but is
// self-contained on the standard library, because the repository carries no
// module dependencies. Unlike go/analysis, a Pass sees the whole parsed
// program at once — rules such as vfsonly, retrysafe and lockorder are
// inherently cross-package, which the per-package go/analysis model makes
// awkward and the whole-program model makes trivial.
//
// Findings are suppressed inline with
//
//	//ltlint:ignore <rule>[,<rule>...] <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory: a suppression without a justification is itself reported.
package ltlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Run inspects the whole
// program via the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string // short lower-case rule name, used in //ltlint:ignore
	Doc  string // one-paragraph description: the rule and the paper section it protects
	Run  func(*Pass) error
}

// A Pass hands an Analyzer the parsed program and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Prog.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// A Program is the whole parsed module: every package, with test files
// marked, sharing one FileSet.
type Program struct {
	Fset    *token.FileSet
	ModPath string // module path from go.mod, e.g. "littletable"
	Pkgs    []*Package
}

// Package looks up a package by import path, or nil.
func (prog *Program) Package(path string) *Package {
	for _, pkg := range prog.Pkgs {
		if pkg.PkgPath == path {
			return pkg
		}
	}
	return nil
}

// A Package is one directory of parsed Go files.
type Package struct {
	PkgPath string // import path, e.g. "littletable/internal/core"
	Dir     string
	Files   []*SourceFile
}

// A SourceFile is one parsed file. Analyzers skip IsTest files: tests
// exercise error paths and real filesystems on purpose, and the crash
// harness itself lives in _test.go files.
type SourceFile struct {
	Path   string
	AST    *ast.File
	IsTest bool
}

// ignoreDirective matches //ltlint:ignore <rules> <reason>. The reason is
// required — see reportMalformedIgnores.
var ignoreDirective = regexp.MustCompile(`^//ltlint:ignore\s+([a-z][a-z0-9,_-]*)\s+(\S.*)$`)

// ignoreBare matches a directive missing its reason.
var ignoreBare = regexp.MustCompile(`^//ltlint:ignore(\s+[a-z][a-z0-9,_-]*)?\s*$`)

// An IgnoreDirective is one well-formed //ltlint:ignore comment. Used
// reports whether the directive suppressed at least one finding in the
// last full-suite run — the signal behind cmd/ltlint's
// -check-stale-ignores audit.
type IgnoreDirective struct {
	Pos   token.Position
	Rules []string
	Used  bool
}

// ignoreSet maps "file:line" to the directives suppressing rules there.
type ignoreSet map[string]map[string]*IgnoreDirective

func ignoreKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// buildIgnores scans every comment in the program for ltlint:ignore
// directives. A directive suppresses the named rules on its own line and
// on the line directly below it, so both trailing and standalone comment
// placement work.
func buildIgnores(prog *Program) (ignoreSet, []*IgnoreDirective) {
	ig := make(ignoreSet)
	var all []*IgnoreDirective
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					m := ignoreDirective.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					d := &IgnoreDirective{Pos: pos}
					for _, rule := range strings.Split(m[1], ",") {
						rule = strings.TrimSpace(rule)
						if rule == "" {
							continue
						}
						d.Rules = append(d.Rules, rule)
						for _, line := range []int{pos.Line, pos.Line + 1} {
							k := ignoreKey(pos.Filename, line)
							if ig[k] == nil {
								ig[k] = make(map[string]*IgnoreDirective)
							}
							ig[k][rule] = d
						}
					}
					if len(d.Rules) > 0 {
						all = append(all, d)
					}
				}
			}
		}
	}
	return ig, all
}

// reportMalformedIgnores flags ltlint:ignore directives that omit the
// mandatory reason: an unexplained suppression is exactly the silent
// discipline erosion this suite exists to stop.
func reportMalformedIgnores(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					if ignoreBare.MatchString(c.Text) {
						out = append(out, Diagnostic{
							Pos:     prog.Fset.Position(c.Pos()),
							Rule:    "ltlint",
							Message: "malformed //ltlint:ignore directive: need a rule name and a reason",
						})
					}
				}
			}
		}
	}
	return out
}

// A Result is the outcome of a RunAll: the surviving diagnostics plus
// every well-formed ignore directive with its consumption bit, for the
// stale-suppression audit.
type Result struct {
	Diags   []Diagnostic
	Ignores []*IgnoreDirective
}

// StaleIgnores returns the directives that suppressed nothing. Only
// meaningful when the run covered the full analyzer suite: a partial
// -rules run trivially leaves other rules' directives unconsumed.
func (r *Result) StaleIgnores() []*IgnoreDirective {
	var out []*IgnoreDirective
	for _, d := range r.Ignores {
		if !d.Used {
			out = append(out, d)
		}
	}
	return out
}

// Run executes the analyzers over the program, filters suppressed
// findings, and returns the rest sorted by position. Malformed
// suppressions are reported as rule "ltlint" and cannot themselves be
// suppressed.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := RunAll(prog, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Diags, nil
}

// RunAll is Run plus ignore-consumption tracking: each directive that
// suppressed at least one finding is marked Used, so callers can audit
// for stale suppressions.
func RunAll(prog *Program, analyzers []*Analyzer) (*Result, error) {
	ig, directives := buildIgnores(prog)
	diags := reportMalformedIgnores(prog)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Prog: prog}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("ltlint: %s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if rules := ig[ignoreKey(d.Pos.Filename, d.Pos.Line)]; rules != nil && rules[d.Rule] != nil {
				rules[d.Rule].Used = true
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule+a.Message < b.Rule+b.Message
	})
	// Deduplicate: lockhold can reach the same statement from two scan
	// roots (an immediately-invoked literal is scanned in its enclosing
	// context and as its own root).
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return &Result{Diags: out, Ignores: directives}, nil
}

// All returns the full analyzer suite in stable order: the four
// AST-local rules from the single-node era, then the four whole-program
// invariants guarding the distributed layer (PRs 6–8). Counter and
// wire-message drift, which two more rules used to police, cannot happen
// any more: each is declared once (internal/metric, wire.Requests).
func All() []*Analyzer {
	return []*Analyzer{
		VfsOnly,
		BarrierCheck,
		CtxProp,
		LockHold,
		RetrySafe,
		LockOrder,
		AtomicPersist,
		GoTrack,
	}
}

// importNames maps each file-local package name to its import path, so
// analyzers resolve `os.Open` correctly even under a renamed import.
func importNames(f *ast.File) map[string]string {
	m := make(map[string]string)
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		m[name] = path
	}
	return m
}

// pkgCall reports whether call is `name.sel(...)` for a plain package
// identifier, returning the local package name and selector.
func pkgCall(call *ast.CallExpr) (pkgName, sel string, ok bool) {
	s, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := s.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	return id.Name, s.Sel.Name, true
}
