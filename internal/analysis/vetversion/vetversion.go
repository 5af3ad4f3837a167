// Package vetversion carries the berthavet suite revision as a
// dependency-free leaf. Binaries that want to stamp the revision into
// their -version output import this package alone, keeping the analysis
// framework — and its go/types machinery — strictly build-time: nothing
// under internal/analysis is linked into the data plane.
package vetversion

import "runtime/debug"

// Suite identifies the vet-suite rule set. Bump it whenever an
// analyzer's rules change: the go command hashes the tool's -V=full
// output into its build cache key, so a bump re-vets every package.
const Suite = "berthavet-2026.09.1"

// String renders "<module version> <suite revision>", e.g.
// "v0.3.0 berthavet-2026.08.3". The module version is "(devel)" for
// plain `go build` working-tree binaries.
func String() string {
	mod := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		mod = bi.Main.Version
	}
	return mod + " " + Suite
}
