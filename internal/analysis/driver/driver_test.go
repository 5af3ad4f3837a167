package driver_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/bertha-net/bertha/internal/analysis/analysistest"
	"github.com/bertha-net/bertha/internal/analysis/driver"
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
	want := []string{"bufown", "overhead", "lockdisc", "ctxflow", "golife", "speccheck", "atomdisc", "batchcontract"}
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

// TestSeeded proves the CI gate has teeth: each row loads seeded-bug
// corpora as one program, and the whole suite must report every
// analyzer/category the row names.
func TestSeeded(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corpora []string // dependencies first
		want    []string // analyzer/category
		// witness, when set, must accept every finding of the row's
		// categories.
		witness func(msg string) bool
	}{
		// The error-path Buf leak PR 1 was prone to.
		{name: "Leak", corpora: []string{"seeded_leak"}, want: []string{"bufown/leak"}},
		// A receive loop with no quit channel, ctx.Done arm, or
		// closeable range: a goroutine with no shutdown edge.
		{name: "Orphan", corpora: []string{"seeded_orphan"}, want: []string{"golife/orphan"}},
		// A counter incremented atomically on the datapath but
		// snapshotted with a plain load.
		{name: "MixedAtomic", corpora: []string{"seeded_mixedatomic"}, want: []string{"atomdisc/mixed-access"}},
		// A SendBufs that abandons the unsent tail on a mid-burst
		// failure and miscounts Sent against the released suffix.
		{name: "TailLeak", corpora: []string{"seeded_tailleak"},
			want: []string{"batchcontract/tail-leak", "batchcontract/sent-miscount"}},
		// An owned Buf dropped after an unannotated read-only helper:
		// only the inferred borrow summary keeps ownership with the
		// caller, so only with inference does bufown see the leak.
		{name: "HelperLeak", corpora: []string{"seeded_helperleak"}, want: []string{"bufown/leak"}},
		// A lock-order cycle that exists only across two packages: the
		// dependency holds its lock across an interface call, and the
		// importer both implements that interface (locking its own
		// mutex) and calls back into the dependency with its mutex held.
		{name: "Deadlock", corpora: []string{"seeded_deadlock_dep", "seeded_deadlock"},
			want: []string{"lockdisc/deadlock"},
			witness: func(msg string) bool {
				return strings.Contains(msg, "Table.mu") && strings.Contains(msg, "Registry.mu")
			}},
	} {
		t.Run(tc.name+"FailsTheGate", func(t *testing.T) {
			diags, err := driver.Analyze(analysistest.Load(t, tc.corpora...))
			if err != nil {
				t.Fatal(err)
			}
			found := map[string]bool{}
			for _, d := range diags {
				key := d.Analyzer + "/" + d.Category
				found[key] = true
				if tc.witness != nil && slices.Contains(tc.want, key) && !tc.witness(d.Message) {
					t.Errorf("%s witness names the wrong locks: %s", key, d.Message)
				}
			}
			for _, key := range tc.want {
				if !found[key] {
					t.Errorf("expected a %s diagnostic, got: %+v", key, diags)
				}
			}
		})
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
