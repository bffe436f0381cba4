package ltlint

import (
	"go/ast"
	"strings"
)

// osFileIO lists the os package's file-I/O entry points. Non-I/O helpers
// (os.Getenv, os.Exit, os.TempDir — which only returns a path string) are
// deliberately absent.
var osFileIO = map[string]bool{
	"Create": true, "CreateTemp": true, "NewFile": true,
	"Open": true, "OpenFile": true,
	"Rename": true, "Remove": true, "RemoveAll": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Stat": true, "Lstat": true, "Truncate": true,
	"Chmod": true, "Chown": true, "Chtimes": true,
	"Link": true, "Symlink": true, "Readlink": true,
}

// ioutilFileIO lists the deprecated io/ioutil equivalents.
var ioutilFileIO = map[string]bool{
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"TempFile": true, "TempDir": true,
}

// VfsOnly enforces the fault-coverage invariant behind §5's recovery
// story: the crash harness can only prove prefix durability if it
// intercepts every byte of file I/O, so no package outside internal/vfs
// may call os (or io/ioutil) file functions directly. Test files are
// exempt (the harness and fixtures live there), as are internal/ltlint
// and cmd/ltlint themselves, which read source text, not engine data.
var VfsOnly = &Analyzer{
	Name: "vfsonly",
	Doc: "direct os/ioutil file I/O outside internal/vfs escapes FaultFS " +
		"and the crash harness, voiding §5's tested durability guarantees",
	Run: runVfsOnly,
}

func runVfsOnly(p *Pass) error {
	mod := p.Prog.ModPath
	exempt := func(pkgPath string) bool {
		return pkgPath == mod+"/internal/vfs" ||
			pkgPath == mod+"/cmd/ltlint" ||
			pkgPath == mod+"/internal/ltlint" ||
			strings.HasPrefix(pkgPath, mod+"/internal/ltlint/")
	}
	inspectNonTest(p.Prog, func(pkg *Package, _ *SourceFile, n ast.Node) bool {
		if exempt(pkg.PkgPath) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key := p.Prog.calleeKey(call)
		if name, ok := strings.CutPrefix(key, "os."); ok && osFileIO[name] {
			p.Reportf(call.Pos(), "direct os.%s outside internal/vfs; "+
				"route file I/O through vfs.FS so FaultFS and the crash harness cover it", name)
		}
		if name, ok := strings.CutPrefix(key, "io/ioutil."); ok && ioutilFileIO[name] {
			p.Reportf(call.Pos(), "direct ioutil.%s outside internal/vfs; "+
				"route file I/O through vfs.FS so FaultFS and the crash harness cover it", name)
		}
		return true
	})
	return nil
}
