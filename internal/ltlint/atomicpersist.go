package ltlint

import (
	"go/ast"
	"slices"
	"strings"
)

// AtomicPersist keeps the crash-safety recipe every durable file is
// written with (§3.2's descriptor discipline, generalized) in one place:
// vfs.AtomicFile and its helpers (CreateAtomic, WriteFileAtomic,
// CopyFileAtomic, Rename). A file created directly at its durable name
// can be seen half-written after a crash, and a rename whose directory is
// never fsynced can vanish on power loss: exactly what the crash harness
// exists to rule out, except the harness only proves paths it executes,
// and a new persistence site is precisely the path it has never executed.
//
// So in the persistence-owning packages any Create or Rename method of a
// filesystem type declared in internal/vfs — vfs.FS, an implementation,
// or an embedding of one — is reported. The recipe itself is tested once,
// by the helper's tests.
var AtomicPersist = &Analyzer{
	Name: "atomicpersist",
	Doc: "durable files are written only through vfs.AtomicFile and its helpers " +
		"(temp→Sync→Rename→SyncDir, §3.2); a raw Create or Rename is what the crash harness cannot forgive",
	Run: runAtomicPersist,
}

// atomicPersistPkgs own durable state.
var atomicPersistPkgs = []string{"/internal/archive", "/internal/core", "/internal/tablet", "/internal/router", "/internal/server"}

func runAtomicPersist(p *Pass) error {
	mod := p.Prog.ModPath
	inspectNonTest(p.Prog, func(pkg *Package, _ *SourceFile, n ast.Node) bool {
		if !slices.Contains(atomicPersistPkgs, strings.TrimPrefix(pkg.PkgPath, mod)) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		rest, inVFS := strings.CutPrefix(p.Prog.calleeKey(call), mod+"/internal/vfs.")
		if typ, op, method := strings.Cut(rest, "."); inVFS && method && (op == "Create" || op == "Rename") {
			p.Reportf(call.Pos(), "raw %s.%s outside internal/vfs; write durable files through "+
				"vfs.CreateAtomic, WriteFileAtomic, CopyFileAtomic or vfs.Rename (§3.2)", typ, op)
		}
		return true
	})
	return nil
}
