// Package lockdisc_sib1 is one half of the lockdisc sibling corpus: it
// orders Index.Mu before Journal.Mu, and Pool.Mu before Queue.Mu.
package lockdisc_sib1

import locks "testdata/lockdisc_locks"

// Reindex holds the index lock while journaling. With lockdisc_sib2's
// Replay, which journals first, that is a cycle no package imports
// whole; the module-wide pass reports it exactly once.
func Reindex(x *locks.Index, j *locks.Journal) {
	x.Mu.Lock()
	j.Append() // want `deadlock.*Index\.Mu -> .*Journal\.Mu -> .*Index\.Mu`
	x.Mu.Unlock()
}

// Drain holds Pool.Mu while pushing: the same order lockdisc_sib2 uses.
func Drain(p *locks.Pool, q *locks.Queue) {
	p.Mu.Lock()
	q.Push()
	p.Mu.Unlock()
}
