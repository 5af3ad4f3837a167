package transport

import (
	"sync/atomic"

	"github.com/bertha-net/bertha/internal/wire"
)

// connRing is the per-connection receive ring of the reactor runtime: a
// bounded multi-producer queue of pooled buffers in the style of
// Vyukov's MPMC ring, drained by one consumer at a time.
//
// Producers are reactor goroutines. On a shared socket any reactor may
// receive any peer's datagrams, so the producer side cannot be a strict
// single producer: each slot carries a sequence number and producers
// claim slots by CAS on the head, which degenerates to an uncontended
// CAS when (as almost always) one reactor at a time is delivering to a
// given connection. The consumer side is the connection's Recv path,
// serialized by the connection's pop mutex.
//
// Ownership (DESIGN.md §12): push transfers the buffer into the slot
// array — pop's callers (the connection's Recv path, or its close-time
// drain) own the release. A push against a full ring releases the
// buffer itself and reports false, so callers only account the drop.
type connRing struct {
	mask uint64
	// slots is the ring storage. A slot is writable by a producer when
	// seq == index, readable by the consumer when seq == index+1; pop
	// re-arms seq to index+mask+1 for the next lap.
	slots []ringSlot //bertha:queue drained by pop, whose callers own the release
	_     [48]byte   // keep head and tail on separate cache lines
	head  atomic.Uint64
	_     [56]byte
	// tail is consumer-owned (guarded by the connection's pop mutex);
	// atomic so occupancy accounting can read it from other goroutines.
	tail atomic.Uint64
}

type ringSlot struct {
	seq atomic.Uint64
	b   *wire.Buf
}

// init makes r an empty ring of the given power-of-two capacity. A ring
// lives in its connection, and only its slots are an allocation of their
// own.
func (r *connRing) init(size int) {
	r.mask = uint64(size - 1)
	r.slots = make([]ringSlot, size)
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
}

// push enqueues b, transferring ownership to the drain path. On a full
// ring it releases b and reports false.
func (r *connRing) push(b *wire.Buf) bool {
	h := r.head.Load()
	for {
		slot := &r.slots[h&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == h:
			if r.head.CompareAndSwap(h, h+1) {
				r.slots[h&r.mask].b = b
				// The seq store publishes the slot to the consumer; the
				// buffer write above happens-before it.
				slot.seq.Store(h + 1)
				return true
			}
			h = r.head.Load()
		case seq < h:
			// The slot still holds a message from mask+1 pushes ago:
			// the ring is full. Datagram semantics: drop.
			b.Release()
			return false
		default:
			// Another producer claimed h; chase the head.
			h = r.head.Load()
		}
	}
}

// pop dequeues the next buffer, nil when the ring is empty. The caller
// must hold the connection's pop mutex (single consumer) and owns the
// returned buffer.
func (r *connRing) pop() *wire.Buf {
	t := r.tail.Load()
	slot := &r.slots[t&r.mask]
	if slot.seq.Load() != t+1 {
		return nil
	}
	b := slot.b
	slot.b = nil
	// Re-arm the slot for the producers' next lap.
	slot.seq.Store(t + r.mask + 1)
	r.tail.Store(t + 1)
	return b
}

// occupied reports the number of undelivered messages (approximate
// under concurrent pushes; exact when quiescent).
func (r *connRing) occupied() int64 {
	n := int64(r.head.Load()) - int64(r.tail.Load())
	if n < 0 {
		n = 0
	}
	return n
}

// memBytes is the ring's slot-array footprint, for per-connection
// accounting.
func (r *connRing) memBytes() int64 {
	return int64(len(r.slots)) * 16
}
