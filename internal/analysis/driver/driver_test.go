package driver_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/driver"
	"github.com/bertha-net/bertha/internal/analysis/load"
)

// TestRepositoryClean is the merge gate in test form: the entire module
// must produce zero diagnostics. If this fails, either fix the finding
// or annotate an intentional transfer (see DESIGN.md "Statically-checked
// invariants").
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks every package")
	}
	var stdout, stderr bytes.Buffer
	if code := driver.Main([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("berthavet ./... = exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestSuiteComplete pins the analyzer roster TestRepositoryClean runs:
// dropping an analyzer from the suite must not silently weaken the
// merge gate.
func TestSuiteComplete(t *testing.T) {
	want := []string{"callgraph", "bufown", "overhead", "lockdisc", "ctxflow", "golife", "speccheck", "atomdisc", "batchcontract"}
	have := map[string]bool{}
	for _, a := range driver.Analyzers {
		have[a.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("analyzer %q missing from driver.Analyzers", name)
		}
	}
	if len(driver.Analyzers) != len(want) {
		t.Errorf("driver.Analyzers has %d analyzers, want %d", len(driver.Analyzers), len(want))
	}
}

// TestSeededLeakFailsTheGate proves the CI job would catch a
// reintroduced Buf leak: the seeded_leak corpus contains exactly the
// error-path leak PR 1 was prone to, and the driver must reject it.
func TestSeededLeakFailsTheGate(t *testing.T) {
	modRoot, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	exports, err := load.ExportMap(modRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(modRoot, "internal", "analysis", "testdata", "src", "seeded_leak")
	pkg, err := load.Dir(dir, "testdata/seeded_leak", exports)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := driver.RunPackage(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("seeded Buf leak produced no diagnostics; the CI gate is toothless")
	}
	leak := false
	for _, d := range diags {
		if d.Analyzer == "bufown" && d.Category == "leak" {
			leak = true
		}
	}
	if !leak {
		t.Errorf("expected a bufown/leak diagnostic, got: %+v", diags)
	}
}

// TestSeededOrphanFailsTheGate proves the gate catches a goroutine with
// no shutdown edge: the seeded_orphan corpus launches a receive loop
// with no quit channel, ctx.Done arm, or closeable range — golife must
// reject it.
func TestSeededOrphanFailsTheGate(t *testing.T) {
	modRoot, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	exports, err := load.ExportMap(modRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(modRoot, "internal", "analysis", "testdata", "src", "seeded_orphan")
	pkg, err := load.Dir(dir, "testdata/seeded_orphan", exports)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := driver.RunPackage(pkg)
	if err != nil {
		t.Fatal(err)
	}
	orphan := false
	for _, d := range diags {
		if d.Analyzer == "golife" && d.Category == "orphan" {
			orphan = true
		}
	}
	if !orphan {
		t.Errorf("expected a golife/orphan diagnostic, got: %+v", diags)
	}
}

// TestSeededMixedAtomicFailsTheGate proves the gate catches a mixed
// atomic/plain field access: the seeded_mixedatomic corpus increments
// a counter atomically on the datapath but snapshots it with a plain
// load — atomdisc must reject it.
func TestSeededMixedAtomicFailsTheGate(t *testing.T) {
	modRoot, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	exports, err := load.ExportMap(modRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(modRoot, "internal", "analysis", "testdata", "src", "seeded_mixedatomic")
	pkg, err := load.Dir(dir, "testdata/seeded_mixedatomic", exports)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := driver.RunPackage(pkg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := false
	for _, d := range diags {
		if d.Analyzer == "atomdisc" && d.Category == "mixed-access" {
			mixed = true
		}
	}
	if !mixed {
		t.Errorf("expected an atomdisc/mixed-access diagnostic, got: %+v", diags)
	}
}

// TestSeededTailLeakFailsTheGate proves the gate catches both batch
// contract clauses: the seeded_tailleak corpus abandons the unsent
// tail on a mid-burst failure and miscounts Sent against the released
// suffix — batchcontract must reject both.
func TestSeededTailLeakFailsTheGate(t *testing.T) {
	modRoot, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	exports, err := load.ExportMap(modRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(modRoot, "internal", "analysis", "testdata", "src", "seeded_tailleak")
	pkg, err := load.Dir(dir, "testdata/seeded_tailleak", exports)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := driver.RunPackage(pkg)
	if err != nil {
		t.Fatal(err)
	}
	var leak, miscount bool
	for _, d := range diags {
		if d.Analyzer == "batchcontract" && d.Category == "tail-leak" {
			leak = true
		}
		if d.Analyzer == "batchcontract" && d.Category == "sent-miscount" {
			miscount = true
		}
	}
	if !leak {
		t.Errorf("expected a batchcontract/tail-leak diagnostic, got: %+v", diags)
	}
	if !miscount {
		t.Errorf("expected a batchcontract/sent-miscount diagnostic, got: %+v", diags)
	}
}

// TestSeededHelperLeakFailsTheGate proves summary inference has teeth:
// the seeded_helperleak corpus drops an owned Buf after handing it to
// an unannotated read-only helper. Only the inferred borrow summary
// keeps ownership with the caller, so only with inference does bufown
// see the leak.
func TestSeededHelperLeakFailsTheGate(t *testing.T) {
	modRoot, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	exports, err := load.ExportMap(modRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(modRoot, "internal", "analysis", "testdata", "src", "seeded_helperleak")
	pkg, err := load.Dir(dir, "testdata/seeded_helperleak", exports)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := driver.RunPackage(pkg)
	if err != nil {
		t.Fatal(err)
	}
	leak := false
	for _, d := range diags {
		if d.Analyzer == "bufown" && d.Category == "leak" {
			leak = true
		}
	}
	if !leak {
		t.Errorf("expected a bufown/leak diagnostic through the unannotated helper, got: %+v", diags)
	}
}

// TestSeededDeadlockFailsTheGate proves the gate catches a lock-order
// cycle that exists only across two packages: the dependency holds its
// lock across an interface call it cannot resolve, and the importer
// both implements that interface (locking its own mutex) and calls back
// into the dependency with its mutex held. Each package is clean in
// isolation; the composition deadlocks.
func TestSeededDeadlockFailsTheGate(t *testing.T) {
	modRoot, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	exports, err := load.ExportMap(modRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	loader := load.NewLoader(exports)
	facts := analysis.NewFactStore()
	var all []analysis.Diagnostic
	for _, name := range []string{"seeded_deadlock_dep", "seeded_deadlock"} {
		dir := filepath.Join(modRoot, "internal", "analysis", "testdata", "src", name)
		pkg, err := loader.Dir(dir, "testdata/"+name)
		if err != nil {
			t.Fatal(err)
		}
		loader.Add(pkg.ImportPath, pkg.Types)
		diags, err := driver.RunPackageFacts(pkg, facts)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, diags...)
	}
	deadlock := false
	for _, d := range all {
		if d.Analyzer == "lockdisc" && d.Category == "deadlock" {
			deadlock = true
			if !strings.Contains(d.Message, "Table.mu") || !strings.Contains(d.Message, "Registry.mu") {
				t.Errorf("deadlock witness names the wrong locks: %s", d.Message)
			}
		}
	}
	if !deadlock {
		t.Errorf("expected a lockdisc/deadlock diagnostic for the cross-package cycle, got: %+v", all)
	}
}

// TestVersionFlag pins the -version contract: module version plus
// vet-suite revision.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := driver.Main([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-version exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "berthavet ") || !strings.Contains(out, "berthavet-20") {
		t.Errorf("-version output %q missing tool name or suite revision", out)
	}
}

// TestRemovedEntryPointsFail pins that the deleted report formats and
// the `go vet -vettool` handshakes fail loudly instead of passing
// silently: each exits 1 and prints nothing a caller could mistake for
// a report.
func TestRemovedEntryPointsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-json"},
		{"-sarif"},
		{"-diff", "HEAD"},
		{"-flags"},
		{"-V=full"},
		{"x.cfg"},
	} {
		var stdout, stderr bytes.Buffer
		if code := driver.Main(args, &stdout, &stderr); code != 1 {
			t.Errorf("berthavet %v = exit %d, want 1", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("berthavet %v printed to stdout: %q", args, stdout.String())
		}
	}
}
