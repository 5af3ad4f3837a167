// Package load turns Go packages into type-checked syntax trees using
// only the standard library: file selection via go/build, parsing via
// go/parser, and dependency import via compiler export data produced by
// `go list -export`. It is the loader beneath cmd/berthavet and the
// analyzer golden tests, standing in for golang.org/x/tools/go/packages,
// which this repository deliberately does not depend on.
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
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
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
// The map is what the export importer resolves stdlib and intra-module
// imports from.
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

// exportImporter resolves imports from compiler export data, with the
// slow-but-pure source importer as fallback for standard-library
// packages missing from the export map.
type exportImporter struct {
	exports  map[string]string
	extra    map[string]*types.Package
	gc       types.Importer
	source   types.Importer
	fset     *token.FileSet
	imported map[string]*types.Package
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports, extra: map[string]*types.Package{}, fset: fset, imported: map[string]*types.Package{}}
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
	if pkg, ok := ei.extra[path]; ok {
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

// Dir parses and type-checks the package in dir (non-test files only,
// honoring build constraints) against the given export map.
func Dir(dir, importPath string, exports map[string]string) (*Package, error) {
	return NewLoader(exports).Dir(dir, importPath)
}

// A Loader type-checks multiple packages against one shared importer
// and FileSet, so a named type resolved while loading one package is
// identical (pointer-equal) when a later package mentions it. The
// golden-test harness needs this to load a dependency corpus and then a
// main corpus that imports it.
type Loader struct {
	fset *token.FileSet
	imp  *exportImporter
}

// NewLoader returns a Loader resolving imports from the export map.
func NewLoader(exports map[string]string) *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: newExportImporter(fset, exports)}
}

// Add registers a previously loaded package under importPath, letting
// subsequent loads import it by that path even though no export data
// exists for it (testdata corpora).
func (l *Loader) Add(importPath string, pkg *types.Package) {
	l.imp.extra[importPath] = pkg
}

// Dir parses and type-checks the package in dir through this loader.
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
	return check(l.fset, files, importPath, l.imp)
}

func check(fset *token.FileSet, files []*ast.File, importPath string, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var firstErr error
	conf := &types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, _ := conf.Check(importPath, fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("load: typecheck %s: %w", importPath, firstErr)
	}
	dir := ""
	if len(files) > 0 {
		dir = filepath.Dir(fset.Position(files[0].Pos()).Filename)
	}
	return &Package{ImportPath: importPath, Dir: dir, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// Patterns loads every package matched by the patterns: the one-call
// convenience used by the driver and the repo-clean test.
func Patterns(modRoot string, patterns ...string) ([]*Package, error) {
	resolved, err := ResolvePatterns(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	exports, err := ExportMap(modRoot, "./...")
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(resolved))
	for _, dp := range resolved {
		pkg, err := Dir(dp[0], dp[1], exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
