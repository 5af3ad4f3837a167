// Package lockdisc_sib2 is the other half of the lockdisc sibling
// corpus: it orders Journal.Mu before Index.Mu, the inverse of
// lockdisc_sib1, and Pool.Mu before Queue.Mu, the same order.
package lockdisc_sib2

import locks "testdata/lockdisc_locks"

// Replay holds the journal lock while looking up the index. The cycle
// it closes with lockdisc_sib1.Reindex is reported there, once.
func Replay(j *locks.Journal, x *locks.Index) {
	j.Mu.Lock()
	x.Lookup()
	j.Mu.Unlock()
}

// Refill orders Pool.Mu before Queue.Mu inline, as lockdisc_sib1.Drain
// does through a call: a consistent order reports nothing.
func Refill(p *locks.Pool, q *locks.Queue) {
	p.Mu.Lock()
	q.Mu.Lock()
	q.Mu.Unlock()
	p.Mu.Unlock()
}
