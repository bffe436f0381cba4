package ltlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoTrack requires every `go` statement in the engine's long-lived layers
// (core, server, router, client, and wire's shared connection front end) to be tied to a sync.WaitGroup so that
// Shutdown/Drain/Close can prove quiescence. PR 6's drain contract —
// "finish in-flight work, then return" — and PR 8's Close both end in a
// wg.Wait(); a goroutine spawned outside any WaitGroup is invisible to
// them, and a "graceful" shutdown returns while it still runs.
//
// A spawn is considered tracked when, within the enclosing function, a
// WaitGroup Add(...) call precedes the `go` statement, or the spawned
// literal's body defers a WaitGroup Done(). WaitGroup-ness is resolved
// through the receiver's struct fields where possible and falls back to
// the naming convention (an identifier containing "wg" or "WaitGroup").
// Goroutines with a deliberate non-WaitGroup lifecycle (a channel the
// parent closes, a context the parent cancels *and observes*) carry an
// //ltlint:ignore gotrack naming that owner.
var GoTrack = &Analyzer{
	Name: "gotrack",
	Doc: "every goroutine in core/server/router/client/wire must be tied to a " +
		"WaitGroup (or an annotated lifecycle owner), or drain/Shutdown cannot prove quiescence",
	Run: runGoTrack,
}

// goTrackPkgs are the layers whose goroutines shutdown paths must drain.
var goTrackPkgs = []string{
	"/internal/core",
	"/internal/server",
	"/internal/router",
	"/internal/client",
	"/internal/wire",
}

func runGoTrack(p *Pass) error {
	mod := p.Prog.ModPath
	for _, suffix := range goTrackPkgs {
		pkg := p.Prog.Package(mod + suffix)
		if pkg == nil {
			continue
		}
		fields := structFieldTypes(pkg)
		for _, f := range pkg.Files {
			if f.IsTest {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkGoTrackFunc(p, fd, fields)
			}
		}
	}
	return nil
}

// checkGoTrackFunc flags untracked go statements inside one declaration.
func checkGoTrackFunc(p *Pass, fd *ast.FuncDecl, fields map[string]map[string]string) {
	recvName, recvType := receiverOf(fd)
	isWG := func(expr ast.Expr) bool {
		// Resolve x or t.x against the receiver's struct fields first;
		// fall back to the naming convention.
		if sel, ok := expr.(*ast.SelectorExpr); ok && recvName != "" {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == recvName {
				if t := fields[recvType][sel.Sel.Name]; t != "" {
					return strings.Contains(t, "WaitGroup")
				}
			}
		}
		text := strings.ToLower(types.ExprString(expr))
		return strings.Contains(text, "wg") || strings.Contains(text, "waitgroup")
	}

	// Collect WaitGroup Add positions anywhere in the declaration: an Add
	// in the same function body textually before the spawn counts, even
	// across nested literals (the common `wg.Add(1); go func(){...}()`
	// shape and its loop variants).
	var addPositions []int
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && isWG(sel.X) {
			addPositions = append(addPositions, int(call.Pos()))
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		tracked := false
		for _, pos := range addPositions {
			if pos < int(gs.Pos()) {
				tracked = true
				break
			}
		}
		if !tracked {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					d, ok := m.(*ast.DeferStmt)
					if !ok {
						return true
					}
					if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && isWG(sel.X) {
						tracked = true
						return false
					}
					return true
				})
			}
		}
		if !tracked {
			p.Reportf(gs.Pos(), "goroutine is not tied to a WaitGroup; Shutdown/drain cannot prove quiescence — "+
				"Add before the spawn and defer Done in the body, or annotate the lifecycle owner with //ltlint:ignore gotrack")
		}
		return true
	})
}
