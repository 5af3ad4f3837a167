// Message buffers for the zero-copy data plane.
//
// A Buf is a pooled byte buffer with reserved headroom: space in front of
// the payload that header-adding chunnels claim with Prepend instead of
// allocating a fresh buffer and copying the whole message. The receive
// path is the mirror image: transports read datagrams into pooled
// buffers and each chunnel consumes its header with TrimFront. A chunnel
// DAG of depth d therefore costs O(1) allocations per message instead of
// O(d) — the layering tax §5 of the paper argues a well-designed API
// avoids.
//
// Ownership is linear: exactly one owner at a time. Creating or
// receiving a Buf makes the caller its owner; passing it to SendBuf
// transfers ownership to the connection. The final owner calls Release
// (return the backing to the pool), CopyOut (exact-size copy for a
// caller that wants a plain []byte), or Detach (take the bytes out of
// pool management). Using a Buf after ownership was given away corrupts
// messages; the released flag catches the common cases by panicking.
package wire

import (
	"sync"
	"sync/atomic"
)

// DefaultHeadroom is the headroom reserved when the caller cannot see
// the negotiated stack's exact header requirement. It comfortably covers
// the built-in chunnels (tag 1 + frame 8 + seq 9 + mcast 16 + nonce 12).
const DefaultHeadroom = 64

// MaxPooled is the largest pooled backing array: 64 KiB, eight runtime
// pages exactly. A transport receive slot fills one whole, so that it
// holds a UDP GRO train of up to 64 000 bytes behind DefaultHeadroom; a
// byte more would round the allocation up to nine pages.
const MaxPooled = 1 << 16

// bufClasses are the pooled backing-array size classes.
var bufClasses = [...]int{512, 4096, 32768, MaxPooled}

var bufPools [len(bufClasses)]sync.Pool

// Buf is a pooled message buffer with headroom. The zero value is not
// usable; obtain one with NewBuf, NewBufFrom, or WrapBuf.
type Buf struct {
	store    []byte
	off, end int
	class    int8 // index into bufClasses, or -1 when not pooled
	released bool

	// Trace context riding alongside the payload (never part of the
	// stored bytes): the tracing layer stamps sampled sends here at the
	// top of the stack, the trace chunnel serializes the context into
	// wire headroom at the bottom, and the receive side parses it back
	// before the stack runs. The fields survive Prepend/Extend backing
	// swaps (those exchange store/class only) and are cleared when a
	// pooled buffer is reused.
	traceID   uint64
	traceSpan uint32
	traceHop  uint8
	traced    bool
}

// SetTrace marks the message as sampled, attaching the trace context the
// downstream trace chunnel serializes into wire headroom.
func (b *Buf) SetTrace(id uint64, span uint32, hop uint8) {
	b.traceID = id
	b.traceSpan = span
	b.traceHop = hop
	b.traced = true
}

// ClearTrace removes the trace context (e.g. before echoing a received
// buffer back, so the reply is not attributed to the request's trace).
func (b *Buf) ClearTrace() {
	b.traceID = 0
	b.traceSpan = 0
	b.traceHop = 0
	b.traced = false
}

// Traced reports whether the message carries a sampled trace context.
func (b *Buf) Traced() bool { return b.traced }

// Trace returns the trace context; ok is false for unsampled messages.
func (b *Buf) Trace() (id uint64, span uint32, hop uint8, ok bool) {
	return b.traceID, b.traceSpan, b.traceHop, b.traced
}

// bufsOutstanding counts pooled buffers currently checked out: created
// or fetched from a pool and not yet released or detached. It is a
// process-health signal (a steady climb is a leak), published as a
// telemetry gauge at snapshot time.
var bufsOutstanding atomic.Int64

// BufsOutstanding returns the number of pooled buffers currently live.
func BufsOutstanding() int64 { return bufsOutstanding.Load() }

func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

func getBuf(total int) *Buf {
	ci := classFor(total)
	if ci < 0 {
		return &Buf{store: make([]byte, total), class: -1}
	}
	bufsOutstanding.Add(1)
	if v := bufPools[ci].Get(); v != nil {
		b := v.(*Buf)
		b.released = false
		// A recycled buffer must not inherit its previous life's trace
		// context.
		b.ClearTrace()
		return b
	}
	return &Buf{store: make([]byte, bufClasses[ci]), class: int8(ci)}
}

// NewBuf returns a buffer whose payload section is n bytes long,
// preceded by headroom bytes of reserved space for Prepend. The payload
// contents are unspecified; the caller fills Bytes().
func NewBuf(headroom, n int) *Buf {
	if headroom < 0 || n < 0 {
		panic("wire: negative buffer size")
	}
	b := getBuf(headroom + n)
	b.off = headroom
	b.end = headroom + n
	return b
}

// NewBufFrom returns a pooled buffer holding a copy of p with the given
// headroom. p is not retained.
func NewBufFrom(headroom int, p []byte) *Buf {
	b := NewBuf(headroom, len(p))
	copy(b.store[b.off:], p)
	return b
}

// WrapBuf adopts p as an unpooled buffer with no headroom. The buffer
// takes ownership of p; Release is a no-op (the bytes are left to the
// garbage collector).
func WrapBuf(p []byte) *Buf {
	return &Buf{store: p, end: len(p), class: -1}
}

func (b *Buf) check() {
	if b.released {
		panic("wire: Buf used after Release/Detach")
	}
}

// Bytes returns the current message. The slice is invalidated by
// Prepend, Extend, Release, CopyOut, and Detach.
func (b *Buf) Bytes() []byte { b.check(); return b.store[b.off:b.end] }

// Len returns the message length.
func (b *Buf) Len() int { b.check(); return b.end - b.off }

// Headroom returns the bytes available for Prepend without reallocation.
func (b *Buf) Headroom() int { b.check(); return b.off }

// Tailroom returns the bytes available for Extend without reallocation.
func (b *Buf) Tailroom() int { b.check(); return len(b.store) - b.end }

// Prepend grows the message by n bytes at the front and returns the new
// front section for the caller to fill. When headroom is exhausted the
// backing is replaced by a larger pooled one (one copy) — correctness is
// preserved, only the fast path is lost.
func (b *Buf) Prepend(n int) []byte {
	b.check()
	if n < 0 {
		panic("wire: negative prepend")
	}
	if n <= b.off {
		b.off -= n
		return b.store[b.off : b.off+n]
	}
	cur := b.store[b.off:b.end]
	nb := getBuf(DefaultHeadroom + n + len(cur))
	copy(nb.store[DefaultHeadroom+n:], cur)
	// Swap backings: b keeps its identity for the caller, nb carries the
	// old backing home to its pool.
	b.store, nb.store = nb.store, b.store
	b.class, nb.class = nb.class, b.class
	nb.released = false
	b.off = DefaultHeadroom
	b.end = DefaultHeadroom + n + len(cur)
	nb.off, nb.end = 0, 0
	nb.Release()
	return b.store[b.off : b.off+n]
}

// Extend grows the message by n bytes at the end and returns the new
// tail section for the caller to fill.
func (b *Buf) Extend(n int) []byte {
	b.check()
	if n < 0 {
		panic("wire: negative extend")
	}
	if b.end+n <= len(b.store) {
		s := b.store[b.end : b.end+n]
		b.end += n
		return s
	}
	cur := b.store[b.off:b.end]
	nb := getBuf(b.off + len(cur) + n)
	copy(nb.store[b.off:], cur)
	b.store, nb.store = nb.store, b.store
	b.class, nb.class = nb.class, b.class
	nb.released = false
	b.end = b.off + len(cur) + n
	nb.off, nb.end = 0, 0
	nb.Release()
	return b.store[b.end-n : b.end]
}

// Append grows the message by a copy of p at the end.
func (b *Buf) Append(p []byte) {
	copy(b.Extend(len(p)), p)
}

// TrimFront drops n bytes from the front of the message — how a chunnel
// consumes its header on the receive path. The dropped bytes become
// headroom, so an echo path can Prepend them back without reallocating.
func (b *Buf) TrimFront(n int) {
	b.check()
	if n < 0 || n > b.end-b.off {
		panic("wire: trim beyond message")
	}
	b.off += n
}

// TrimBack drops n bytes from the end of the message.
func (b *Buf) TrimBack(n int) {
	b.check()
	if n < 0 || n > b.end-b.off {
		panic("wire: trim beyond message")
	}
	b.end -= n
}

// Truncate shortens the message to n bytes (n ≤ Len) — used after
// reading a datagram of unknown size into a full-size buffer.
func (b *Buf) Truncate(n int) {
	b.check()
	if n < 0 || n > b.end-b.off {
		panic("wire: truncate beyond message")
	}
	b.end = b.off + n
}

// Release returns the backing array to its pool. It is the terminal
// operation for an owner that is done with the message. Releasing an
// unpooled buffer just drops it. Release on an already-released Buf is
// a no-op, but any access is a panic.
func (b *Buf) Release() {
	if b == nil || b.released {
		return
	}
	b.released = true
	if b.class < 0 {
		b.store = nil
		return
	}
	bufsOutstanding.Add(-1)
	b.off, b.end = 0, 0
	bufPools[b.class].Put(b)
}

// CopyOut returns an exact-size copy of the message and releases the
// buffer — the bridge from the pooled data plane to the plain []byte
// Recv contract (caller owns the returned slice).
func (b *Buf) CopyOut() []byte {
	b.check()
	p := make([]byte, b.end-b.off)
	copy(p, b.store[b.off:b.end])
	b.Release()
	return p
}

// Detach removes the message bytes from pool management and returns
// them; the caller owns the slice indefinitely and the backing is left
// to the garbage collector. Use when the bytes must outlive any pooling
// discipline (e.g. a retransmission queue).
func (b *Buf) Detach() []byte {
	b.check()
	p := b.store[b.off:b.end:b.end]
	if b.class >= 0 {
		bufsOutstanding.Add(-1)
	}
	b.store = nil
	b.class = -1
	b.released = true
	return p
}
