package ltlint

import (
	"go/ast"
	"go/token"
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
// Filesystem middleware — methods on structs that embed vfs.FS and relay
// each call (the I/O-budget meter, fault injectors) — is exempt: it
// forwards whatever discipline its caller chose. Module-internal helper
// *functions* named Create (tablet.Create) are calls into blessed
// helpers, not raw filesystem creates, and are likewise skipped.
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
			checkAtomicPersistFile(p, pkg, f)
		}
	}
	return nil
}

func checkAtomicPersistFile(p *Pass, pkg *Package, f *SourceFile) {
	imports := importNames(f.AST)
	modInternal := func(call *ast.CallExpr) bool {
		name, _, ok := pkgCall(call)
		if !ok {
			return false
		}
		path, imported := imports[name]
		return imported && (strings.HasPrefix(path, p.Prog.ModPath+"/") || path == p.Prog.ModPath)
	}

	// First pass: does this file contain the Rename and SyncDir halves of
	// the recipe? The check is file-scoped because the recipe is often
	// split across functions of one writer (tablet.Writer's Create starts
	// the staging that Finish completes).
	var hasRename, hasSyncDir bool
	for _, decl := range f.AST.Decls {
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && !modInternal(call) {
				switch sel.Sel.Name {
				case "Rename":
					hasRename = true
				case "SyncDir":
					hasSyncDir = true
				}
			}
			return true
		})
	}

	for _, decl := range f.AST.Decls {
		fd, isFunc := decl.(*ast.FuncDecl)
		if isFunc && embedsVfsFS(pkg, fd) {
			continue // filesystem middleware relays its caller's discipline
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || modInternal(call) {
				return true
			}
			switch sel.Sel.Name {
			case "Create":
				if len(call.Args) == 0 {
					return true
				}
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

// embedsVfsFS reports whether fd is a method on a struct that embeds
// vfs.FS — filesystem middleware whose Create/Rename methods forward to
// the wrapped FS.
func embedsVfsFS(pkg *Package, fd *ast.FuncDecl) bool {
	_, recvType := receiverOf(fd)
	if recvType == "" {
		return false
	}
	st := structType(pkg, recvType)
	if st == nil {
		return false
	}
	for _, fld := range st.Fields.List {
		if len(fld.Names) != 0 {
			continue // named field, not an embed
		}
		if strings.Contains(types.ExprString(fld.Type), "vfs.FS") ||
			types.ExprString(fld.Type) == "FS" {
			return true
		}
	}
	return false
}

// structType finds the named struct type's declaration in the package's
// non-test files.
func structType(pkg *Package, typeName string) *ast.StructType {
	for _, f := range pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typeName {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}
