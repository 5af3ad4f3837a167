// Package golife_a is the golden corpus for the golife analyzer:
// orphan goroutine launches, WaitGroup misuse, and unbounded daemon
// spawning, plus the shutdown edges that make launches legal.
package golife_a

import (
	"context"
	"sync"

	dep "testdata/golife_dep"
)

// ---- orphan ----

// OrphanLit launches a literal that can never leave its loop.
func OrphanLit(ch chan int) {
	go func() { // want `orphan`
		for {
			<-ch
		}
	}()
}

// forever is a local daemon body.
func forever(ch chan int) {
	for {
		<-ch
	}
}

// OrphanDecl launches a same-package function that loops forever.
func OrphanDecl(ch chan int) {
	go forever(ch) // want `orphan`
}

// OrphanFact launches a cross-package function whose LoopsForeverFact
// was exported when the dependency corpus was analyzed.
func OrphanFact(ch chan int) {
	go dep.Forever(ch) // want `orphan`
}

// runLoop delegates to forever: launching runLoop launches the loop.
func runLoop(ch chan int) {
	forever(ch)
}

// OrphanWrapped launches a same-package wrapper around a forever loop;
// the call-graph closure sees through the delegation.
func OrphanWrapped(ch chan int) {
	go runLoop(ch) // want `orphan`
}

// OrphanWrappedFact launches a cross-package wrapper whose
// LoopsForeverFact came from the dependency's call-graph closure.
func OrphanWrappedFact(ch chan int) {
	go dep.ForeverWrapper(ch) // want `orphan`
}

// OkQuitCase has a shutdown edge: the quit arm returns.
func OkQuitCase(ch chan int, quit chan struct{}) {
	go func() {
		for {
			select {
			case <-ch:
			case <-quit:
				return
			}
		}
	}()
}

// OkCtxDone exits on cancellation.
func OkCtxDone(ctx context.Context, ch chan int) {
	go func() {
		for {
			select {
			case <-ch:
			case <-ctx.Done():
				return
			}
		}
	}()
}

// OkRange drains until the channel closes: close(ch) is the edge.
func OkRange(ch chan int) {
	go func() {
		for range ch {
		}
	}()
}

// OkBounded leaves the loop through a conditional break.
func OkBounded(ch chan int) {
	go func() {
		for {
			if v := <-ch; v < 0 {
				break
			}
		}
	}()
}

// OkDeclaredDaemon is exempt: the launch is a declared daemon.
func OkDeclaredDaemon(ch chan int) {
	go func() { //bertha:daemon golden-test fixture: intentional pump
		for {
			<-ch
		}
	}()
}

// ---- waitgroup ----

// WgAddInside calls Add from inside the launched goroutine, racing
// with Wait; Done is then also unmatched at launch time.
func WgAddInside() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want `waitgroup`
		wg.Done() // want `waitgroup`
	}()
	wg.Wait()
}

// WgNoAdd calls Done on a WaitGroup no Add precedes.
func WgNoAdd() {
	var wg sync.WaitGroup
	go func() {
		defer wg.Done() // want `waitgroup`
	}()
	wg.Wait()
}

// wgRef names a pointer to waitGroup, an alias of sync.WaitGroup.
type (
	waitGroup = sync.WaitGroup
	wgRef     = *waitGroup
)

// WgAliasNoAdd is WgNoAdd with the WaitGroup typed by the aliases.
func WgAliasNoAdd() {
	wg := wgRef(new(waitGroup))
	go func() {
		defer wg.Done() // want `waitgroup`
	}()
	wg.Wait()
}

// OkWg is the canonical pairing: Add before the launch, Done inside.
func OkWg(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// ---- spawn-in-loop ----

// SpawnLoop starts a fresh daemon per iteration of an unbounded loop:
// the goroutine population grows without bound.
func SpawnLoop(ch chan int) {
	for {
		dep.StartDaemon(ch) // want `spawn-in-loop`
		<-ch
	}
}

// SpawnLoopWrapped calls a constructor that spawns its daemon through
// an unexported helper: the transitive SpawnsFact still flags it.
func SpawnLoopWrapped(ch chan int) {
	for {
		dep.StartViaHelper(ch) // want `spawn-in-loop`
		<-ch
	}
}

// OkSpawnBounded spawns inside a loop that exits.
func OkSpawnBounded(ch chan int, n int) {
	for i := 0; i < n; i++ {
		dep.StartDaemon(ch)
	}
}

// OkNonDaemonLoop calls a cross-package function that launches nothing
// unbounded.
func OkNonDaemonLoop(ch chan int, quit chan struct{}) {
	for {
		select {
		case <-ch:
			dep.Drain(ch)
		case <-quit:
			return
		}
	}
}
