// Package load turns Go packages into type-checked syntax trees using
// only the standard library: file selection via go/build, parsing via
// go/parser, and type-checking via go/types. It is the loader beneath
// cmd/berthavet and the analyzer golden tests, standing in for
// golang.org/x/tools/go/packages, which this repository deliberately
// does not depend on.
//
// The requested packages are checked from source as one program: in
// dependency order, through one Loader, so an import of a package in
// the set resolves to its already-checked *types.Package and every
// object is one pointer program-wide. Only imports from outside the set
// (the standard library) come from compiler export data produced by
// `go list -export`.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	// Info is the type information of the whole program the package was
	// checked in: every package of one Loader shares it.
	Info *types.Info
}

// ModuleRoot locates the enclosing module root (the directory holding
// go.mod) starting from dir.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("load: no go.mod above %s", abs)
		}
		d = parent
	}
}

// goList runs `go list` in dir with the given format and patterns and
// returns non-empty output lines.
func goList(dir, format string, patterns []string) ([]string, error) {
	args := append([]string{"list", "-f", format}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("load: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	return lines, nil
}

// ExportMap builds an import-path → export-data-file map for the
// transitive dependencies of the patterns (compiling them if needed).
// The map is what the export importer resolves imports from outside the
// checked set from.
func ExportMap(modRoot string, patterns ...string) (map[string]string, error) {
	lines, err := goList(modRoot, `{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}`,
		append([]string{"-e", "-deps", "-export"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(lines))
	for _, l := range lines {
		if i := strings.IndexByte(l, '='); i > 0 {
			exports[l[:i]] = l[i+1:]
		}
	}
	if len(exports) == 0 {
		return nil, fmt.Errorf("load: go list -export produced no export data for %v", patterns)
	}
	return exports, nil
}

// ResolvePatterns expands go package patterns (./..., import paths) into
// (dir, importPath) pairs. Arguments naming existing directories that go
// list cannot resolve (e.g. testdata trees) are returned with a
// synthesized import path; any other pattern go list cannot resolve is
// an error, so a mistyped pattern never passes as a clean run.
func ResolvePatterns(modRoot string, patterns []string) ([][2]string, error) {
	var pkgs [][2]string
	var listable []string
	for _, p := range patterns {
		if st, err := os.Stat(p); err == nil && st.IsDir() && underTestdata(p) {
			abs, _ := filepath.Abs(p)
			pkgs = append(pkgs, [2]string{abs, "testdata/" + filepath.Base(abs)})
			continue
		}
		listable = append(listable, p)
	}
	if len(listable) > 0 {
		lines, err := goList(modRoot, `{{if .GoFiles}}{{.Dir}}{{"\x01"}}{{.ImportPath}}{{end}}`, listable)
		if err != nil {
			return nil, err
		}
		for _, l := range lines {
			parts := strings.SplitN(l, "\x01", 2)
			if len(parts) == 2 {
				pkgs = append(pkgs, [2]string{parts[0], parts[1]})
			}
		}
	}
	return pkgs, nil
}

func underTestdata(path string) bool {
	abs, err := filepath.Abs(path)
	if err != nil {
		return false
	}
	for _, seg := range strings.Split(filepath.ToSlash(abs), "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

// exportImporter resolves imports: packages already checked by the
// Loader first, then compiler export data, with the slow-but-pure
// source importer as fallback for standard-library packages missing
// from the export map.
type exportImporter struct {
	checked  map[string]*types.Package
	gc       types.Importer
	source   types.Importer
	imported map[string]*types.Package
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{checked: map[string]*types.Package{}, imported: map[string]*types.Package{}}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	ei.gc = importer.ForCompiler(fset, "gc", lookup)
	ei.source = importer.ForCompiler(fset, "source", nil)
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := ei.checked[path]; ok {
		return pkg, nil
	}
	if pkg, ok := ei.imported[path]; ok {
		return pkg, nil
	}
	pkg, err := ei.gc.Import(path)
	if err != nil && !strings.Contains(path, ".") {
		// Stdlib package outside the repo's dependency closure (possible
		// for testdata-only imports): type-check it from GOROOT source.
		pkg, err = ei.source.Import(path)
	}
	if err != nil {
		return nil, err
	}
	ei.imported[path] = pkg
	return pkg, nil
}

// A Loader type-checks packages as one program: one FileSet, one
// types.Info, and one importer, so a package checked earlier is what
// later packages import by its path, and a named type or function is
// identical (pointer-equal) wherever it is mentioned. Check packages
// dependencies first; the golden-test harness loads each corpus's
// dependency corpora before it, and Patterns sorts.
type Loader struct {
	fset *token.FileSet
	info *types.Info
	imp  *exportImporter
}

// NewLoader returns a Loader resolving imports outside the checked set
// from the export map.
func NewLoader(exports map[string]string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset: fset,
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
		imp: newExportImporter(fset, exports),
	}
}

// Dir parses and type-checks the package in dir (non-test files only,
// honoring build constraints) under importPath, and makes it importable
// by that path for every package checked after it.
func (l *Loader) Dir(dir, importPath string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %w", dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	var firstErr error
	conf := &types.Config{
		Importer: l.imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, _ := conf.Check(importPath, l.fset, files, l.info)
	if firstErr != nil {
		return nil, fmt.Errorf("load: typecheck %s: %w", importPath, firstErr)
	}
	l.imp.checked[importPath] = pkg
	return &Package{ImportPath: importPath, Dir: dir, Fset: l.fset, Files: files, Types: pkg, Info: l.info}, nil
}

// Patterns loads every package matched by the patterns as one program,
// returned dependencies first: the one-call convenience used by the
// driver and the repo-clean test.
func Patterns(modRoot string, patterns ...string) ([]*Package, error) {
	resolved, err := ResolvePatterns(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	exports, err := ExportMap(modRoot, "./...")
	if err != nil {
		return nil, err
	}
	sorted, err := sortDeps(resolved)
	if err != nil {
		return nil, err
	}
	l := NewLoader(exports)
	pkgs := make([]*Package, 0, len(sorted))
	for _, dp := range sorted {
		pkg, err := l.Dir(dp[0], dp[1])
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// sortDeps orders (dir, importPath) pairs topologically by their
// imports: every package after all of its dependencies in the set, ties
// broken by import path for determinism.
func sortDeps(pkgs [][2]string) ([][2]string, error) {
	imports := make(map[string][]string, len(pkgs))
	byPath := make(map[string][2]string, len(pkgs))
	for _, dp := range pkgs {
		bp, err := build.ImportDir(dp[0], 0)
		if err != nil {
			return nil, fmt.Errorf("load: %s: %w", dp[0], err)
		}
		imports[dp[1]] = bp.Imports // sorted by go/build
		byPath[dp[1]] = dp
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	sorted := make([][2]string, 0, len(paths))
	placed := map[string]bool{}
	var visit func(p string)
	visit = func(p string) {
		if placed[p] {
			return // Go forbids import cycles, so no package is re-entered
		}
		placed[p] = true
		for _, d := range imports[p] {
			if _, ok := byPath[d]; ok {
				visit(d)
			}
		}
		sorted = append(sorted, byPath[p])
	}
	for _, p := range paths {
		visit(p)
	}
	return sorted, nil
}
