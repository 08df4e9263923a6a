package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path (module-relative for local packages)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module using
// only the standard library: module-internal imports are resolved
// from source, everything else through the default (export-data)
// importer.
type Loader struct {
	Fset *token.FileSet

	modPath string
	modDir  string
	std     types.Importer
	pkgs    map[string]*Package // keyed by import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader creates a loader rooted at the module containing dir: it
// walks up from dir until it finds a go.mod and reads the module
// path from it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir := abs
	for {
		if _, err := os.Stat(filepath.Join(modDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(modDir)
		if parent == modDir {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		modDir = parent
	}
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", modDir)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modPath: modPath,
		modDir:  modDir,
		std:     importer.Default(),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// Load resolves a pattern — "./...", a relative directory, or a
// module-internal import path — to loaded packages. Directories
// named testdata, hidden directories, and directories without
// non-test Go files are skipped during ./... expansion.
func (l *Loader) Load(pattern string) ([]*Package, error) {
	var dirs []string
	switch {
	case pattern == "./..." || pattern == "...":
		var err error
		dirs, err = l.walkDirs(l.modDir)
		if err != nil {
			return nil, err
		}
	case strings.HasSuffix(pattern, "/..."):
		base := strings.TrimSuffix(pattern, "/...")
		var err error
		dirs, err = l.walkDirs(l.resolveDir(base))
		if err != nil {
			return nil, err
		}
	default:
		dirs = []string{l.resolveDir(pattern)}
	}
	var out []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			out = append(out, p)
		}
	}
	return out, nil
}

// resolveDir maps a pattern to a directory: import paths under the
// module resolve relative to the module root, anything else is
// treated as a filesystem path.
func (l *Loader) resolveDir(pattern string) string {
	if rest, ok := strings.CutPrefix(pattern, l.modPath); ok {
		return filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(rest, "/")))
	}
	if filepath.IsAbs(pattern) {
		return pattern
	}
	return filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(pattern, "./")))
}

func (l *Loader) walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the package in dir, returning a
// cached result on repeat calls. Returns (nil, nil) when the
// directory holds no non-test Go files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPathFor(abs)
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var pkgName string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		fname := f.Name.Name
		if strings.HasSuffix(fname, "_test") {
			continue // external test packages are out of scope
		}
		if pkgName != "" && pkgName != fname {
			return nil, fmt.Errorf("analysis: multiple packages in %s: %s and %s", abs, pkgName, fname)
		}
		pkgName = fname
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	// cdalint:ignore dropped-error -- type errors are collected through
	// conf.Error above and reported together below.
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v (+%d more)", path, typeErrs[0], len(typeErrs)-1)
	}
	p := &Package{Path: path, Dir: abs, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// importPathFor maps a directory inside the module to its import
// path; directories outside (e.g. testdata fixtures addressed
// directly) get a synthetic path based on the directory name.
func (l *Loader) importPathFor(abs string) string {
	if rel, err := filepath.Rel(l.modDir, abs); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}

// Import implements types.Importer: module-internal packages are
// type-checked from source, everything else (stdlib) goes through
// the default export-data importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
