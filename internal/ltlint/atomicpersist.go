package ltlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicPersist enforces the crash-safety recipe every durable file in
// the system is written with (§3.2's descriptor discipline, generalized):
// write to a temporary name, Sync, Close, Rename onto the final name,
// SyncDir the parent. A file created directly at its durable name can be
// seen half-written after a crash — exactly the corruption class the
// crash harness exists to rule out, except the harness only proves paths
// it executes, and a new persistence site is precisely the path it has
// never executed.
//
// In the persistence-owning packages (core, tablet, router, server) the
// rule is:
//
//   - every FS Create must target a temporary name ("tmp" in the path
//     expression), and the enclosing file must also perform the Rename
//     and SyncDir that complete the recipe;
//   - every Rename must be accompanied by a SyncDir in the same file
//     (a rename the directory never fsyncs can vanish on power loss).
//
// Filesystem middleware — a method overriding a method of an embedded
// filesystem interface such as vfs.FS, relaying the call (the I/O-budget
// meter, fault injectors) — is exempt: it forwards whatever discipline its
// caller chose. Package-level helper *functions* named Create
// (tablet.Create) are calls into blessed helpers, not raw filesystem
// creates, and are likewise skipped.
var AtomicPersist = &Analyzer{
	Name: "atomicpersist",
	Doc: "durable files must be written temp→Sync→Rename→SyncDir (§3.2); a direct " +
		"create at the final name is exactly what the crash harness cannot forgive",
	Run: runAtomicPersist,
}

// atomicPersistPkgs own durable state.
var atomicPersistPkgs = []string{
	"/internal/core",
	"/internal/tablet",
	"/internal/router",
	"/internal/server",
}

func runAtomicPersist(p *Pass) error {
	mod := p.Prog.ModPath
	for _, suffix := range atomicPersistPkgs {
		pkg := p.Prog.Package(mod + suffix)
		if pkg == nil {
			continue
		}
		for _, f := range pkg.Files {
			if f.IsTest {
				continue
			}
			checkAtomicPersistFile(p, f)
		}
	}
	return nil
}

func checkAtomicPersistFile(p *Pass, f *SourceFile) {
	// First pass: does this file contain the Rename and SyncDir halves of
	// the recipe? The check is file-scoped because the recipe is often
	// split across functions of one writer (tablet.Writer's Create starts
	// the staging that Finish completes).
	var hasRename, hasSyncDir bool
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch p.Prog.fsOp(call) {
			case "Rename":
				hasRename = true
			case "SyncDir":
				hasSyncDir = true
			}
		}
		return true
	})

	for _, decl := range f.AST.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && p.Prog.relays(fd) {
			continue // filesystem middleware relays its caller's discipline
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch p.Prog.fsOp(call) {
			case "Create":
				arg := types.ExprString(call.Args[0])
				if !strings.Contains(arg, "tmp") && !strings.Contains(arg, "Tmp") {
					p.Reportf(call.Pos(), "durable file created directly at its final name (%s); "+
						"stage to a temporary name, Sync, Rename, SyncDir (§3.2) so a crash never exposes a half-written file", arg)
					return true
				}
				if !hasRename || !hasSyncDir {
					p.Reportf(call.Pos(), "staged write (%s) is never completed in this file: the temp→Sync→Rename→SyncDir "+
						"recipe needs the Rename and SyncDir halves too", arg)
				}
			case "Rename":
				if !hasSyncDir {
					p.Reportf(call.Pos(), "Rename without a SyncDir in this file; a rename the parent directory "+
						"never fsyncs can vanish on power loss (§3.2)")
				}
			}
			return true
		})
	}
}

// fsOp returns "Create", "Rename" or "SyncDir" when call invokes a
// method of that name — a filesystem operation — and "" otherwise.
// Package-level functions of those names, like tablet.Create, are
// helpers that own the recipe themselves, not raw filesystem calls.
func (prog *Program) fsOp(call *ast.CallExpr) string {
	fn := prog.callee(call)
	if fn == nil || fn.Type().(*types.Signature).Recv() == nil || len(call.Args) == 0 {
		return ""
	}
	switch fn.Name() {
	case "Create", "Rename", "SyncDir":
		return fn.Name()
	}
	return ""
}

// relays reports whether fd is filesystem middleware: a method that
// overrides a method of an interface its receiver's struct embeds (the
// I/O-budget meter's Create over vfs.FS), relaying the call.
func (prog *Program) relays(fd *ast.FuncDecl) bool {
	fn := prog.Info.Defs[fd.Name].(*types.Func)
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	st, ok := namedOf(recv.Type()).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if fld := st.Field(i); fld.Embedded() && types.IsInterface(fld.Type()) {
			if m, _, _ := types.LookupFieldOrMethod(fld.Type(), false, fn.Pkg(), fn.Name()); m != nil {
				return true
			}
		}
	}
	return false
}
