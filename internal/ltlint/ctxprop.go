package ltlint

import (
	"go/ast"
)

// CtxProp enforces the cancellation chain built in PR 2 and extended to
// the wire layer in PR 6: a query's context threads
// client→server→core→tablet→vfs so an abandoned request stops consuming
// sockets and disk. A context.Background()/TODO() inside the checked
// packages severs that chain — reads, block loads, and prefetch pipelines
// spawned under it outlive the caller. The only sanctioned uses are the
// designated roots: the public context-free API shims and the server's
// BaseContext fallback, each carrying an //ltlint:ignore with its
// justification.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc: "context.Background()/TODO() inside internal/{core,tablet,client,server} " +
		"severs the client→server→core→tablet→vfs cancellation chain; thread the caller's context",
	Run: runCtxProp,
}

func runCtxProp(p *Pass) error {
	mod := p.Prog.ModPath
	checked := map[string]bool{
		mod + "/internal/core":   true,
		mod + "/internal/tablet": true,
		mod + "/internal/client": true,
		mod + "/internal/server": true,
	}
	inspectNonTest(p.Prog, func(pkg *Package, _ *SourceFile, n ast.Node) bool {
		if !checked[pkg.PkgPath] {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			switch key := p.Prog.calleeKey(call); key {
			case "context.Background", "context.TODO":
				p.Reportf(call.Pos(), "%s() severs the client→server→core→tablet→vfs "+
					"cancellation chain; thread the caller's context instead", key)
			}
		}
		return true
	})
	return nil
}
