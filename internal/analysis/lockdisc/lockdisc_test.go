package lockdisc_test

import (
	"go/token"
	"strings"
	"testing"

	"github.com/bertha-net/bertha/internal/analysis"
	"github.com/bertha-net/bertha/internal/analysis/analysistest"
	"github.com/bertha-net/bertha/internal/analysis/lockdisc"
)

func TestLockdisc(t *testing.T) {
	analysistest.Run(t, "lockdisc_a", lockdisc.Analyzer)
}

// TestLockdiscInterproc pins the lock-order graph inside one package: a
// cycle closed through a helper call is a deadlock, a direct inverse
// pair stays `order`, and a goroutine launched under a lock adds no
// edge.
func TestLockdiscInterproc(t *testing.T) {
	analysistest.Run(t, "lockdisc_interproc", lockdisc.Analyzer)
}

// TestLockdiscSiblings pins the program-wide cycle search: two packages
// that share a lock package but never import each other close a cycle
// reported exactly once, and a consistent order across them reports
// nothing.
func TestLockdiscSiblings(t *testing.T) {
	analysistest.Run(t, "lockdisc_sib2", lockdisc.Analyzer, "lockdisc_locks", "lockdisc_sib1")
}

// siblingDiags runs lockdisc over the sibling corpus as one program.
func siblingDiags(t *testing.T) ([]analysis.Diagnostic, *token.FileSet) {
	t.Helper()
	pkgs := analysistest.Load(t, "lockdisc_locks", "lockdisc_sib1", "lockdisc_sib2")
	diags, err := analysis.Run(lockdisc.Analyzer, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	return diags, pkgs[0].Fset
}

// TestModuleDeadlocksSiblingCycle: with no import relation between the
// packages owning the two edges, the module-wide cycle search must
// report the cycle exactly once, naming both locks in the witness.
func TestModuleDeadlocksSiblingCycle(t *testing.T) {
	diags, fset := siblingDiags(t)
	var deadlocks []analysis.Diagnostic
	for _, d := range diags {
		if d.Category == "deadlock" {
			deadlocks = append(deadlocks, d)
		}
	}
	if len(deadlocks) != 1 {
		t.Fatalf("got %d deadlock findings, want 1: %+v", len(deadlocks), deadlocks)
	}
	msg := deadlocks[0].Message
	if !strings.Contains(msg, "Index.Mu") || !strings.Contains(msg, "Journal.Mu") {
		t.Errorf("witness does not name both locks: %s", msg)
	}
	if pos := fset.Position(deadlocks[0].Pos); !pos.IsValid() {
		t.Errorf("finding carries no witness position")
	}
}

// TestModuleDeadlocksNoCycle: the siblings' consistent Pool.Mu before
// Queue.Mu order produces nothing.
func TestModuleDeadlocksNoCycle(t *testing.T) {
	diags, fset := siblingDiags(t)
	for _, d := range diags {
		if strings.Contains(d.Message, "Pool.Mu") || strings.Contains(d.Message, "Queue.Mu") {
			t.Errorf("%s: acyclic order reported: [%s] %s", fset.Position(d.Pos), d.Category, d.Message)
		}
	}
}
