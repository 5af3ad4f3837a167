// Command berthavet runs the bertha static-analysis suite: bufown
// (linear wire.Buf ownership with inferred borrow/transfer summaries),
// lockdisc (mutexes across blocking conn calls, lock ordering, and
// lock-order cycles across the whole program), ctxflow (context
// propagation and timer lifetimes), golife (goroutine shutdown edges,
// WaitGroup pairing, and spawns through helper wrappers), speccheck
// (spec stacks evaluated against the chunnel registry), atomdisc
// (sync/atomic access discipline), and batchcontract (the
// SendBufs/RecvBufs batch contract).
//
// The packages are loaded and type-checked once, as one program, and
// each analyzer runs over all of them in one pass, so what it learns
// about a function in one package (a borrowed parameter, a lock it
// takes) is a plain map entry when another package calls it.
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
