// Package lockdisc_interproc is the golden corpus for lockdisc's
// interprocedural lock order inside one package: acquisitions chain
// through helper calls, a direct inverse pair stays the intra-package
// `order` finding, and a goroutine launched under a lock runs without
// it.
package lockdisc_interproc

import "sync"

// Account and Ledger each guard their state with one mutex.
type Account struct{ mu sync.Mutex }

type Ledger struct{ mu sync.Mutex }

// touch acquires the ledger lock; callers holding Account.mu order it
// before Ledger.mu without ever naming Ledger.mu themselves.
func (l *Ledger) touch() {
	l.mu.Lock()
	l.mu.Unlock()
}

// post holds Account.mu and reaches Ledger.mu through touch.
func (a *Account) post(l *Ledger) {
	a.mu.Lock()
	l.touch()
	a.mu.Unlock()
}

// audit takes the two locks in the opposite order, directly. With post
// that is a cycle closed through a helper call: a deadlock, not a
// direct inverse pair.
func (l *Ledger) audit(a *Account) {
	l.mu.Lock()
	a.mu.Lock() // want `deadlock`
	a.mu.Unlock()
	l.mu.Unlock()
}

// Left and Right are acquired inline in both orders: the classic
// inverse pair, reported once as `order` and never as `deadlock`.
type Left struct{ mu sync.Mutex }

type Right struct{ mu sync.Mutex }

func pairForward(l *Left, r *Right) {
	l.mu.Lock()
	r.mu.Lock() // want `order`
	r.mu.Unlock()
	l.mu.Unlock()
}

func pairBackward(l *Left, r *Right) {
	r.mu.Lock()
	l.mu.Lock()
	l.mu.Unlock()
	r.mu.Unlock()
}

// Owner and Worker: Owner launches work under its lock, but the
// goroutine does not hold Owner.mu when it takes Worker.mu, so neither
// launch adds an order edge and worker's inverse order is clean.
type Owner struct{ mu sync.Mutex }

type Worker struct{ mu sync.Mutex }

func (w *Worker) run() {
	w.mu.Lock()
	w.mu.Unlock()
}

func (o *Owner) spawn(w *Worker) {
	o.mu.Lock()
	go w.run()
	go func() {
		w.mu.Lock()
		w.mu.Unlock()
	}()
	o.mu.Unlock()
}

func (w *Worker) report(o *Owner) {
	w.mu.Lock()
	o.mu.Lock()
	o.mu.Unlock()
	w.mu.Unlock()
}
