package driver_test

import (
	"testing"

	"github.com/bertha-net/bertha/internal/analysis/driver"
	"github.com/bertha-net/bertha/internal/analysis/load"
)

// BenchmarkBerthavetSuite measures one full suite run over the
// already-loaded module — the analysis cost CI pays per push, excluding
// parse/typecheck.
func BenchmarkBerthavetSuite(b *testing.B) {
	modRoot, err := load.ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := load.Patterns(modRoot, "./...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver.Analyze(pkgs); err != nil {
			b.Fatal(err)
		}
	}
}
