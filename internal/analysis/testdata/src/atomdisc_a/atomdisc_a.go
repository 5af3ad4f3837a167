// Package atomdisc_a is the golden corpus for the atomdisc analyzer:
// mixed atomic/plain field access, 64-bit alignment of function-style
// atomics under 32-bit layout, by-value copies of atomic-bearing
// structs, and the //bertha:racy escape hatch.
package atomdisc_a

import "sync/atomic"

// ---- mixed-access ----

type counter struct {
	hits int64
	name string
}

func (c *counter) inc() {
	atomic.AddInt64(&c.hits, 1)
}

func (c *counter) okAtomic() int64 {
	return atomic.LoadInt64(&c.hits)
}

func (c *counter) badRead() int64 {
	return c.hits // want `mixed-access`
}

func (c *counter) badWrite() {
	c.hits = 0 // want `mixed-access`
}

func (c *counter) badIncrement() {
	c.hits++ // want `mixed-access`
}

// rename touches a field nobody accesses atomically: plain is fine.
func (c *counter) rename(s string) {
	c.name = s
}

// snapshotLocked documents why its plain read is safe.
func (c *counter) snapshotLocked() int64 {
	//bertha:racy caller holds the registry mutex, writers are parked
	return c.hits
}

// badCompareRead hides the plain read inside an atomic call: only the
// address argument is the sanctioned access, the old-value argument is
// a plain read.
func (c *counter) badCompareRead() {
	atomic.CompareAndSwapInt64(&c.hits, c.hits, 0) // want `mixed-access`
}

// gauge opts its field out wholesale at the declaration.
type gauge struct {
	//bertha:racy monitoring-only stat, torn reads are acceptable
	val int64
}

func (g *gauge) bump()       { atomic.AddInt64(&g.val, 1) }
func (g *gauge) read() int64 { return g.val }

// ---- atomic-align ----

// misaligned puts the 64-bit field at offset 4 under 32-bit layout.
type misaligned struct {
	ready bool
	n     int64
}

func (m *misaligned) add() {
	atomic.AddInt64(&m.n, 1) // want `atomic-align`
}

// aligned leads with the 64-bit field: offset 0 everywhere.
type aligned struct {
	n     int64
	ready bool
}

func (a *aligned) add() {
	atomic.AddInt64(&a.n, 1)
}

// inner is misaligned when embedded by value after a 4-byte field.
type inner struct {
	pad uint32
	n   int64
}

type outer struct {
	in inner
}

func (o *outer) add() {
	atomic.AddInt64(&o.in.n, 1) // want `atomic-align`
}

// alignedInner behind a pointer is fine regardless of where the
// pointer field itself sits: the indirection starts a fresh
// 64-bit-aligned allocation.
type alignedInner struct {
	n int64
}

type outerPtr struct {
	pad uint32
	in  *alignedInner
}

func (o *outerPtr) add() {
	atomic.AddInt64(&o.in.n, 1)
}

// ---- atomic-copy ----

type stats struct {
	ops atomic.Int64
}

func (s stats) badLoad() int64 { // want `atomic-copy`
	return s.ops.Load()
}

func (s *stats) goodLoad() int64 {
	return s.ops.Load()
}

// config names atomic.Value by an alias.
type config = atomic.Value

// aliasStats carries a typed atomic behind the alias.
type aliasStats struct {
	cfg config
}

func (s aliasStats) badAliasLoad() any { // want `atomic-copy`
	return s.cfg.Load()
}

func consume(s stats) {}

func callCopies(s *stats) {
	consume(*s) // want `atomic-copy`
	cp := *s    // want `atomic-copy`
	_ = cp
}

// freshValues shows the exemptions: zero values and composite
// literals are births, not copies of live state.
func freshValues() *stats {
	var s stats
	t := stats{}
	_ = t
	return &s
}

func keep(p *stats, s stats) {}

// typeOperands shows that a type passed as a call argument, as to new,
// names the type and copies nothing; a real copy beside it still is one.
func typeOperands(s *stats) *stats {
	p := new(stats)
	keep(new(stats), *s) // want `atomic-copy`
	return p
}

// fnStats carries atomic state through function-style atomics on a
// plain field rather than a typed atomic.
type fnStats struct {
	hits int64
}

func (f *fnStats) inc() { atomic.AddInt64(&f.hits, 1) }

func copyFnStats(f *fnStats) {
	snap := *f // want `atomic-copy`
	_ = snap
}
