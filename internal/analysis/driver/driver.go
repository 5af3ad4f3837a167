// Package driver is the berthavet multichecker: it runs the callgraph,
// bufown, overhead, lockdisc, ctxflow, golife, speccheck, atomdisc,
// and batchcontract analyzers over the module's packages in one process
// (`berthavet ./...`).
//
// The driver orders the loaded packages topologically by import
// dependency and runs each wave of mutually independent packages in
// parallel (DepWaves), sharing one in-memory analysis.FactStore, so a
// pass over a package sees every fact its dependencies exported. After
// the per-package passes it assembles the lockdisc LockOrderFacts into
// one module-global lock-order graph and reports deadlock cycles no
// single pass could see whole.
package driver

import (
	"fmt"
	"go/types"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/atomdisc"
	"github.com/bertha-net/bertha/internal/analysis/batchcontract"
	"github.com/bertha-net/bertha/internal/analysis/bufown"
	"github.com/bertha-net/bertha/internal/analysis/callgraph"
	"github.com/bertha-net/bertha/internal/analysis/ctxflow"
	"github.com/bertha-net/bertha/internal/analysis/golife"
	"github.com/bertha-net/bertha/internal/analysis/load"
	"github.com/bertha-net/bertha/internal/analysis/lockdisc"
	"github.com/bertha-net/bertha/internal/analysis/overhead"
	"github.com/bertha-net/bertha/internal/analysis/speccheck"
)

// Analyzers is the berthavet suite, in execution order. callgraph runs
// first so its CallGraphFact for the package under analysis is already
// in the store when the interprocedural analyzers run over it.
var Analyzers = []*analysis.Analyzer{
	callgraph.Analyzer,
	bufown.Analyzer,
	overhead.Analyzer,
	lockdisc.Analyzer,
	ctxflow.Analyzer,
	golife.Analyzer,
	speccheck.Analyzer,
	atomdisc.Analyzer,
	batchcontract.Analyzer,
}

// Version renders the tool version, "<module version> <suite revision>",
// e.g. "v0.3.0 berthavet-2026.09.1". The module version is "(devel)"
// for plain `go build` working-tree binaries.
func Version() string {
	mod := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		mod = bi.Main.Version
	}
	return mod + " " + analysis.SuiteRevision
}

// Main is the berthavet entry point; it returns the process exit code
// (0 clean, 1 operational failure, 2 diagnostics found).
func Main(args []string, stdout, stderr io.Writer) int {
	var patterns []string
	for _, a := range args {
		switch {
		case a == "-version" || a == "--version":
			fmt.Fprintf(stdout, "berthavet %s\n", Version())
			return 0
		case a == "-h" || a == "-help" || a == "--help":
			usage(stdout)
			return 0
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(stderr, "berthavet: unknown flag %q\n", a)
			usage(stderr)
			return 1
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	found, err := run(patterns, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "berthavet: %v\n", err)
		return 1
	}
	if found > 0 {
		fmt.Fprintf(stderr, "berthavet: %d diagnostic(s)\n", found)
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage: berthavet [-version] [packages]

Runs the bertha static-analysis suite (%s) over the packages
(default ./...) and prints one finding per line as
file:line:col: [analyzer/category] message
`, analysis.SuiteRevision)
	for _, a := range Analyzers {
		fmt.Fprintf(w, "  %-13s %s\n", a.Name, a.Doc)
	}
	fmt.Fprint(w, `
Suppress a diagnostic with //berthavet:ignore <analyzer> on its line.
`)
}

// run loads the packages, runs every analyzer over them in dependency
// order sharing one fact store, then the module-global deadlock check,
// and prints each finding to stdout. It returns the number of findings.
func run(patterns []string, stdout io.Writer) (int, error) {
	modRoot, err := load.ModuleRoot(".")
	if err != nil {
		return 0, err
	}
	pkgs, err := load.Patterns(modRoot, patterns...)
	if err != nil {
		return 0, err
	}
	facts := analysis.NewFactStore()
	results, err := Analyze(pkgs, facts)
	if err != nil {
		return 0, err
	}
	found := 0
	for _, r := range results {
		for _, d := range r.Diags {
			fmt.Fprintf(stdout, "%s: [%s/%s] %s\n",
				r.Pkg.Fset.Position(d.Pos), d.Analyzer, d.Category, d.Message)
			found++
		}
	}
	// Module-global deadlock check: lock-order cycles split between
	// sibling packages reach the shared fact store but no single pass's
	// view; assemble and report them here (see lockdisc/module.go).
	for _, f := range lockdisc.ModuleDeadlocks(facts.ModulePackageFacts("lockdisc"), factVisibility(pkgs)) {
		fmt.Fprintf(stdout, "%s: [lockdisc/deadlock] %s\n", f.Pos, f.Message)
		found++
	}
	return found, nil
}

// PkgDiags pairs one analyzed package with its findings.
type PkgDiags struct {
	Pkg   *load.Package
	Diags []analysis.Diagnostic
}

// Analyze runs the whole suite over the packages with inter-package
// parallelism: SortDeps order is partitioned into dependency waves
// (every package's in-set dependencies land in strictly earlier waves),
// the members of a wave are analyzed on separate goroutines sharing the
// fact store, and results come back in deterministic SortDeps order.
func Analyze(pkgs []*load.Package, facts *analysis.FactStore) ([]PkgDiags, error) {
	sorted := SortDeps(pkgs)
	byPath := make(map[string]PkgDiags, len(sorted))
	for _, wave := range DepWaves(sorted) {
		var wg sync.WaitGroup
		results := make([]PkgDiags, len(wave))
		errs := make([]error, len(wave))
		for i, pkg := range wave {
			wg.Add(1)
			go func(i int, pkg *load.Package) {
				defer wg.Done()
				diags, err := RunPackageFacts(pkg, facts)
				results[i] = PkgDiags{Pkg: pkg, Diags: diags}
				errs[i] = err
			}(i, pkg)
		}
		wg.Wait()
		for i, r := range results {
			if errs[i] != nil {
				return nil, errs[i]
			}
			byPath[r.Pkg.ImportPath] = r
		}
	}
	out := make([]PkgDiags, 0, len(sorted))
	for _, pkg := range sorted {
		out = append(out, byPath[pkg.ImportPath])
	}
	return out, nil
}

// DepWaves partitions topologically-sorted packages into waves: a
// package's wave index is one past the deepest wave of any of its
// in-set dependencies, so the members of one wave are mutually
// independent and safe to analyze in parallel.
func DepWaves(sorted []*load.Package) [][]*load.Package {
	level := make(map[string]int, len(sorted))
	var waves [][]*load.Package
	for _, p := range sorted {
		// Walk the transitive import closure: an in-set dependency may
		// be reachable only through packages outside the set, and it
		// still must finish (facts exported) before p starts.
		lvl := 0
		seen := map[string]bool{}
		var walk func(t *types.Package)
		walk = func(t *types.Package) {
			for _, imp := range t.Imports() {
				if seen[imp.Path()] {
					continue
				}
				seen[imp.Path()] = true
				if l, ok := level[imp.Path()]; ok && l+1 > lvl {
					lvl = l + 1
				}
				walk(imp)
			}
		}
		walk(p.Types)
		level[p.ImportPath] = lvl
		for len(waves) <= lvl {
			waves = append(waves, nil)
		}
		waves[lvl] = append(waves[lvl], p)
	}
	return waves
}

// factVisibility returns sees(a, b): whether package a's analysis saw
// package b's exported facts, i.e. b is a or in a's transitive import
// closure. ModuleDeadlocks uses it to skip cycles a per-package pass
// already reported.
func factVisibility(pkgs []*load.Package) func(a, b string) bool {
	closure := make(map[string]map[string]bool, len(pkgs))
	for _, p := range pkgs {
		set := map[string]bool{p.ImportPath: true}
		var walk func(t *types.Package)
		walk = func(t *types.Package) {
			for _, imp := range t.Imports() {
				if !set[imp.Path()] {
					set[imp.Path()] = true
					walk(imp)
				}
			}
		}
		walk(p.Types)
		closure[p.ImportPath] = set
	}
	return func(a, b string) bool {
		if set, ok := closure[a]; ok {
			return set[b]
		}
		return a == b
	}
}

// SortDeps orders loaded packages topologically: every package after
// all of its dependencies that are also in the slice, ties broken by
// import path for determinism.
func SortDeps(pkgs []*load.Package) []*load.Package {
	byPath := make(map[string]*load.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	sorted := make([]*load.Package, 0, len(pkgs))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *load.Package)
	visit = func(p *load.Package) {
		switch state[p.ImportPath] {
		case 1, 2:
			return // cycle (impossible in Go) or already placed
		}
		state[p.ImportPath] = 1
		deps := make([]string, 0, len(p.Types.Imports()))
		for _, imp := range p.Types.Imports() {
			deps = append(deps, imp.Path())
		}
		sort.Strings(deps)
		for _, d := range deps {
			if dp, ok := byPath[d]; ok {
				visit(dp)
			}
		}
		state[p.ImportPath] = 2
		sorted = append(sorted, p)
	}
	ordered := make([]*load.Package, len(pkgs))
	copy(ordered, pkgs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ImportPath < ordered[j].ImportPath })
	for _, p := range ordered {
		visit(p)
	}
	return sorted
}

// RunPackage applies the whole suite to one loaded package with a
// fresh, package-local fact store (no cross-package knowledge).
func RunPackage(pkg *load.Package) ([]analysis.Diagnostic, error) {
	return RunPackageFacts(pkg, analysis.NewFactStore())
}

// RunPackageFacts applies the whole suite to one loaded package,
// reading and writing cross-package facts through the given store.
func RunPackageFacts(pkg *load.Package, facts *analysis.FactStore) ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	for _, a := range Analyzers {
		diags, err := analysis.Run(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, facts)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
