package ltlint

import (
	"go/ast"
)

// barrierMethods are the method names whose error return is a durability
// barrier: a tablet or descriptor is not committed until the Sync, the
// Rename into place, and the parent-directory SyncDir have all succeeded.
var barrierMethods = map[string]bool{
	"Sync":    true,
	"SyncDir": true,
	"Rename":  true,
}

// barrierFuncs are package-level functions with the same weight; today
// that is the descriptor commit, whose silent failure was PR 3's
// lost-rows bug.
var barrierFuncs = map[string]bool{
	"writeDescriptor": true,
}

// BarrierCheck enforces §5's prefix-durability proof obligation: every
// sync/rename/descriptor-commit error must be checked — returned,
// branched on, or kept for a retry while no file a durable descriptor
// names is deleted — never dropped on the floor. It flags barrier calls whose result is discarded:
// bare expression statements, go/defer statements, and assignments where
// every left-hand side is blank.
var BarrierCheck = &Analyzer{
	Name: "barriercheck",
	Doc: "a discarded Sync/Rename/SyncDir/writeDescriptor error silently " +
		"breaks §5 prefix durability; check it, or keep the change for a retry and delete no file a durable descriptor names",
	Run: runBarrierCheck,
}

func runBarrierCheck(p *Pass) error {
	inspectNonTest(p.Prog, func(pkg *Package, f *SourceFile, n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if name, ok := barrierCall(s.X); ok {
				p.Reportf(s.Pos(), "%s's error is discarded; a failed barrier must be checked "+
					"or kept for a retry that deletes no file a durable descriptor names (§5 prefix durability)", name)
			}
		case *ast.GoStmt:
			if name, ok := barrierCall(s.Call); ok {
				p.Reportf(s.Pos(), "go %s discards the barrier error; run it synchronously "+
					"and check the result (§5 prefix durability)", name)
			}
		case *ast.DeferStmt:
			if name, ok := barrierCall(s.Call); ok {
				p.Reportf(s.Pos(), "defer %s discards the barrier error; a deferred barrier "+
					"cannot fail the commit it protects (§5 prefix durability)", name)
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				return true
			}
			name, ok := barrierCall(s.Rhs[0])
			if !ok {
				return true
			}
			for _, lhs := range s.Lhs {
				if id, isIdent := lhs.(*ast.Ident); !isIdent || id.Name != "_" {
					return true
				}
			}
			p.Reportf(s.Pos(), "%s's error is assigned to _; a failed barrier must be checked "+
				"or kept for a retry that deletes no file a durable descriptor names (§5 prefix durability)", name)
		}
		return true
	})
	return nil
}

// barrierCall reports whether e is a call to a barrier method or
// function, returning a printable name.
func barrierCall(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if barrierMethods[fun.Sel.Name] {
			return fun.Sel.Name, true
		}
	case *ast.Ident:
		if barrierFuncs[fun.Name] {
			return fun.Name, true
		}
	}
	return "", false
}
