package wire

import (
	"sync"
	"sync/atomic"
)

// MaxViews is how many views one Slab lends.
const MaxViews = 64

// A Slab lends regions of one owned backing as views: Bufs that share
// the backing without copying it, where the data plane would otherwise
// cut one buffer into many — a GRO train into its datagrams, a message
// into its fragments. The rules:
//
//   - A view owns its own region of the backing and nothing else. Its
//     headroom is the part of the region in front of its message, and it
//     has no tailroom: a Prepend or Extend past the region moves the view
//     to a backing of its own (one copy), never into a neighbour.
//   - CopyOut and Detach of a view copy its bytes.
//   - The backing goes back to its pool, counted once in
//     BufsOutstanding, when the lender and every view are done with it:
//     one view held pins the whole backing, up to MaxPooled bytes.
//
// The view headers are part of the Slab and Slabs are pooled, so lending
// allocates nothing. A Slab is used by one lender; its views may be
// released from any goroutine.
type Slab struct {
	// refs counts the views lent and not yet released, plus lending
	// while the lender holds the Slab: Lend counts nothing, and Done
	// trades lending for the number of views lent, so lending costs no
	// atomic operation and a view released early cannot free the Slab.
	refs atomic.Int32
	home *Buf // the shared buffer, released with the last reference
	base int  // home's message offset at Share: where Lend counts from
	lent int
	// views are the headers Lend hands out, in order.
	views [MaxViews]Buf
}

var slabPool = sync.Pool{New: func() any { return new(Slab) }}

// lending stands for the lender's reference in Slab.refs: more than the
// views one Slab lends.
const lending = 1 << 30

// Share moves b, and with it the ownership of b's backing, into a Slab
// that lends views of it, and returns the Slab. b may itself be a view.
// The caller holds the Slab's lending reference and drops it with Done.
func Share(b *Buf) *Slab {
	b.check()
	s := slabPool.Get().(*Slab)
	s.home, s.base = b, b.off
	s.refs.Store(lending)
	return s
}

// Lend returns a view of the region [lo, hi) of the shared buffer's
// backing whose message is [off, hi): off-lo bytes of headroom and no
// tailroom. Positions count from the start of the shared buffer's
// message at Share, so a negative lo reaches into its headroom. The
// caller owns the view. Lend panics past MaxViews views or outside the
// backing.
func (s *Slab) Lend(lo, off, hi int) *Buf {
	if lo > off || off > hi {
		panic("wire: lend of an inverted region")
	}
	if s.lent == MaxViews {
		panic("wire: slab has no view left to lend")
	}
	v := &s.views[s.lent]
	s.lent++
	*v = Buf{
		store: s.home.store[s.base+lo : s.base+hi : s.base+hi],
		off:   off - lo,
		end:   hi - lo,
		slab:  s,
		class: -1,
	}
	return v
}

// Done drops the lender's reference: the Slab lends no more views.
func (s *Slab) Done() { s.unref(int32(s.lent) - lending) }

// unref moves the reference count by delta; the last reference sends the
// backing home and the Slab back to its pool.
func (s *Slab) unref(delta int32) {
	if s.refs.Add(delta) != 0 {
		return
	}
	home := s.home
	s.home, s.lent = nil, 0
	slabPool.Put(s)
	home.Release()
}
