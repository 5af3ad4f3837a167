// Command berthavet runs the bertha static-analysis suite: callgraph
// (per-package call graph with bounded devirtualization, feeding the
// others), bufown (linear wire.Buf ownership with inferred
// borrow/transfer summaries), overhead (Prepend totals vs declared
// SendOverhead), lockdisc (mutexes across blocking conn calls, lock
// ordering, and module-global deadlock cycles), ctxflow (context
// propagation and timer lifetimes), golife (goroutine shutdown edges,
// WaitGroup pairing, and spawns through helper wrappers), speccheck
// (spec stacks evaluated against the chunnel registry), atomdisc
// (sync/atomic access discipline), and batchcontract (the
// SendBufs/RecvBufs batch contract).
//
// Analyzers exchange cross-package facts in one process: packages are
// analyzed in dependency order (independent packages in parallel
// waves) over one shared fact store, and a final module-global pass
// assembles lock-order cycles that span sibling packages.
//
//	go run ./cmd/berthavet ./...
//	go run ./cmd/berthavet -version
//
// Each finding is one line, file:line:col: [analyzer/category] message.
// Exit status is 0 when the tree is clean, 2 when diagnostics were
// reported, 1 on operational failure (including an unknown flag).
package main

import (
	"os"

	"github.com/bertha-net/bertha/internal/analysis/driver"
)

func main() {
	os.Exit(driver.Main(os.Args[1:], os.Stdout, os.Stderr))
}
