package ltlint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// LoadModule loads every package of the module rooted at root (the
// directory holding go.mod) into a type-checked Program. It is a small
// stand-in for golang.org/x/tools/go/packages, which a dependency-free
// module cannot import: a filesystem walk, go/parser and go/types.
func LoadModule(root string) (*Program, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return load(root, modPath, modPath)
}

// LoadTree loads a GOPATH-style fixture tree: every directory under src
// becomes a package whose import path is its path relative to src. The
// lttest runner uses this to load testdata/src fixtures, mirroring
// analysistest's layout.
func LoadTree(src, modPath string) (*Program, error) {
	return load(src, modPath, "")
}

// load walks root, parses every directory's Go files into a package whose
// import path is prefix joined with the directory's relative path, and
// type-checks the result. Files are kept only when go/build's default
// context would compile them (build tags and _GOOS/_GOARCH suffixes are
// evaluated), so exactly one of a tag-selected pair is loaded. Test files
// are parsed for their //ltlint:ignore directives but not type-checked;
// analyzers skip them. A parse or type error is a load error.
func load(root, modPath, prefix string) (*Program, error) {
	prog := &Program{
		Fset:    token.NewFileSet(),
		ModPath: modPath,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		pkgPath := prefix
		if rel != "." {
			pkgPath = strings.TrimPrefix(prefix+"/"+filepath.ToSlash(rel), "/")
		}
		if pkgPath == "" {
			return nil // a fixture tree's root holds no package
		}
		pkg, err := parseDir(prog.Fset, dir, pkgPath)
		if pkg != nil {
			prog.Pkgs = append(prog.Pkgs, pkg)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].PkgPath < prog.Pkgs[j].PkgPath })
	l := &loader{prog: prog, std: importer.ForCompiler(prog.Fset, "source", nil), checking: make(map[string]bool)}
	for _, pkg := range prog.Pkgs {
		if _, err := l.Import(pkg.PkgPath); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// parseDir parses the buildable .go files directly in dir, or returns nil
// if there are none.
func parseDir(fset *token.FileSet, dir, pkgPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{PkgPath: pkgPath, Dir: dir}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("ltlint: parse %s: %w", path, err)
		}
		pkg.Files = append(pkg.Files, &SourceFile{
			Path:   path,
			AST:    f,
			IsTest: strings.HasSuffix(e.Name(), "_test.go"),
		})
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// A loader is the types.Importer behind one Program: it returns the
// program's own packages, type-checking each on first import so that
// every importer sees the same types.Objects, and falls back to the
// standard library compiled from source.
type loader struct {
	prog     *Program
	std      types.Importer
	checking map[string]bool
}

func (l *loader) Import(path string) (*types.Package, error) {
	pkg := l.prog.Package(path)
	if pkg == nil && (path == l.prog.ModPath || strings.HasPrefix(path, l.prog.ModPath+"/")) {
		// The source importer would find the real module's package from
		// inside a fixture tree; a tree must declare what it imports.
		return nil, fmt.Errorf("ltlint: package %s is not in the loaded tree", path)
	}
	if pkg == nil {
		return l.std.Import(path)
	}
	if pkg.Types != nil {
		return pkg.Types, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("ltlint: import cycle through %s", path)
	}
	l.checking[path] = true
	var files []*ast.File
	for _, f := range pkg.Files {
		if !f.IsTest {
			files = append(files, f.AST)
		}
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.prog.Fset, files, l.prog.Info)
	if err != nil {
		return nil, fmt.Errorf("ltlint: type-check %s: %w", path, err)
	}
	pkg.Types = tpkg
	return tpkg, nil
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	m := moduleLine.FindSubmatch(b)
	if m == nil {
		return "", fmt.Errorf("ltlint: no module line in %s", gomod)
	}
	return string(m[1]), nil
}

// FindModuleRoot walks upward from dir to the nearest directory holding a
// go.mod, for the cmd/ltlint entry point.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("ltlint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// inspectNonTest applies fn to every non-test file of every package.
func inspectNonTest(prog *Program, fn func(pkg *Package, f *SourceFile, n ast.Node) bool) {
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			if f.IsTest {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool { return fn(pkg, f, n) })
		}
	}
}
