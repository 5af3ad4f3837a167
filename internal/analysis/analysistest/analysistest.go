// Package analysistest runs an analyzer over a testdata package and
// checks its diagnostics against `// want "regexp"` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// A want comment names one or more expected diagnostics for its line:
//
//	b.Release() // want `double-release`
//	m[k] = b    // want "transfer" "second expectation"
//
// Every diagnostic must match a want on its line and every want must be
// matched by a diagnostic, or the test fails.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/load"
)

// Run loads internal/analysis/testdata/src/<dir> and applies a to it.
//
// deps names other testdata corpora the main corpus builds on. Every
// corpus is loaded as one program, deps first in the given order, so
// the main corpus may import a dep by its synthesized path
// ("testdata/<dep>") and the analyzer sees them all in one run.
// `// want` expectations are checked in the dependency corpora too.
func Run(t *testing.T, dir string, a *analysis.Analyzer, deps ...string) {
	t.Helper()
	pkgs := Load(t, append(deps, dir)...)
	diags, err := analysis.Run(a, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkgs, diags)
}

// Load type-checks the named testdata corpora as one program, in the
// given order, which must put every corpus after those it imports.
func Load(t testing.TB, corpora ...string) []*load.Package {
	t.Helper()
	modRoot, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	exports, err := load.ExportMap(modRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	loader := load.NewLoader(exports)
	var pkgs []*load.Package
	for _, name := range corpora {
		pkg, err := loader.Dir(filepath.Join(modRoot, "internal", "analysis", "testdata", "src", name), "testdata/"+name)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// checkWants matches diagnostics against the packages' `// want`
// expectations, failing on both unexpected and missing findings.
func checkWants(t *testing.T, pkgs []*load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		collectWants(t, pkg, wants)
	}
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		key := lineKey(pos)
		text := fmt.Sprintf("[%s/%s] %s", d.Analyzer, d.Category, d.Message)
		matched := false
		for i, w := range wants[key] {
			if w != nil && w.MatchString(text) {
				wants[key][i] = nil // each want matches one diagnostic
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, text)
		}
	}
	for key, res := range wants {
		for _, w := range res {
			if w != nil {
				t.Errorf("%s: expected diagnostic matching %q did not fire", key, w)
			}
		}
	}
}

func lineKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// collectWants indexes the package's // want comments by file:line.
func collectWants(t *testing.T, pkg *load.Package, wants map[string][]*regexp.Regexp) {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					key := lineKey(pos)
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
}
