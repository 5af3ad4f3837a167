// Package driver is the berthavet multichecker: it loads the packages
// as one program (internal/analysis/load) and runs each of the bufown,
// lockdisc, ctxflow, golife, speccheck, atomdisc, and batchcontract
// analyzers over it once, in one process
// (`berthavet ./...`).
package driver

import (
	"fmt"
	"io"
	"runtime/debug"
	"strings"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/atomdisc"
	"github.com/bertha-net/bertha/internal/analysis/batchcontract"
	"github.com/bertha-net/bertha/internal/analysis/bufown"
	"github.com/bertha-net/bertha/internal/analysis/ctxflow"
	"github.com/bertha-net/bertha/internal/analysis/golife"
	"github.com/bertha-net/bertha/internal/analysis/load"
	"github.com/bertha-net/bertha/internal/analysis/lockdisc"
	"github.com/bertha-net/bertha/internal/analysis/speccheck"
)

// Analyzers is the berthavet suite, in execution order.
var Analyzers = []*analysis.Analyzer{
	bufown.Analyzer,
	lockdisc.Analyzer,
	ctxflow.Analyzer,
	golife.Analyzer,
	speccheck.Analyzer,
	atomdisc.Analyzer,
	batchcontract.Analyzer,
}

// Version renders the tool version, "<module version> <suite revision>",
// e.g. "v0.3.0 berthavet-2026.10.4". The module version is "(devel)"
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

// run loads the packages as one program, runs every analyzer over it,
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
	diags, err := Analyze(pkgs)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: [%s/%s] %s\n",
			pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Category, d.Message)
	}
	return len(diags), nil
}

// Analyze runs each analyzer of the suite once over packages loaded as
// one program, dependencies first, and returns the findings analyzer by
// analyzer, each analyzer's in file/line order.
func Analyze(pkgs []*load.Package) ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	for _, a := range Analyzers {
		diags, err := analysis.Run(a, pkgs)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
