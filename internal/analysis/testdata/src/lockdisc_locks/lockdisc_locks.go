// Package lockdisc_locks is the shared lock package of the lockdisc
// sibling corpus: lockdisc_sib1 and lockdisc_sib2 both import it and
// neither imports the other. Each helper takes exactly one lock, so
// this package orders nothing by itself.
package lockdisc_locks

import "sync"

// Index and Journal are the pair the siblings acquire in opposite
// orders.
type Index struct{ Mu sync.Mutex }

type Journal struct{ Mu sync.Mutex }

// Pool and Queue are the pair both siblings acquire in the same order.
type Pool struct{ Mu sync.Mutex }

type Queue struct{ Mu sync.Mutex }

// Lookup takes Index.Mu.
func (x *Index) Lookup() {
	x.Mu.Lock()
	x.Mu.Unlock()
}

// Append takes Journal.Mu.
func (j *Journal) Append() {
	j.Mu.Lock()
	j.Mu.Unlock()
}

// Push takes Queue.Mu.
func (q *Queue) Push() {
	q.Mu.Lock()
	q.Mu.Unlock()
}
