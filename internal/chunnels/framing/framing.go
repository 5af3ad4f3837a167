// Package framing implements an HTTP/2-flavoured stream-framing chunnel:
// each message becomes a typed frame with a stream identifier, and large
// messages are split into CONTINUATION frames reassembled at the
// receiver. It is the "http2" stage of the paper's §6 pipeline example.
//
// # Reliability pairing
//
// Framing itself is not reliable: fragments travel as independent
// datagrams — one burst per message, handed down in a single SendBufs
// call — so on a lossy or reordering transport a CONTINUATION can
// arrive out of order and the whole stream must be discarded (partial
// messages are never delivered). Discards are counted rather than
// silent: the "chunnel/http2/dropped_streams" counter in the process
// telemetry registry (telemetry.Default(), served at /debug/bertha)
// increments per discarded stream. A non-zero value on a supposedly
// reliable stack means the DAG is missing the reliability chunnel below
// framing: on transports that can lose or reorder datagrams, place
// reliability *below* framing (closer to the wire) so fragments are
// retransmitted and ordered before reassembly; then the counter stays
// at zero.
package framing

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name.
const Type = "http2"

// Frame types (a subset of HTTP/2's, enough for message framing).
const (
	frameData         = 0x0
	frameContinuation = 0x9
)

// flagEndStream marks the final frame of a message.
const flagEndStream = 0x1

// headerLen is type(1) + flags(1) + stream(4) + fragment index(2).
const headerLen = 8

// DefaultMaxFrame is the fragment payload ceiling.
const DefaultMaxFrame = 16 << 10

// Reassembly is bounded per connection, so a peer that never finishes
// its streams cannot pin memory without limit: at most maxOpenStreams
// streams are open at once and at most MaxMessage payload bytes are
// parked across them. Past either bound the oldest stream is discarded
// (and counted in DroppedStreamsCounter). MaxMessage is therefore also
// the largest message the chunnel carries; senders reject larger ones.
const (
	maxOpenStreams = 32
	MaxMessage     = core.MaxMessage
)

// recvBurst is the burst-receive scratch: how many frames one receive
// call below may return while a fragmented message is arriving. Sixteen
// take a 16 KiB message's fourteen 1200-byte frames in one call; the
// socket transport retains one pooled datagram buffer per slot, so the
// figure is kept small.
const recvBurst = 16

// Node builds the DAG node: http2(maxFrame).
func Node(maxFrame int) spec.Node {
	return spec.New(Type, wire.Int(int64(maxFrame)))
}

// Register installs the userspace fallback implementation.
func Register(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     Type + "/sw",
			Type:     Type,
			Endpoint: spec.EndpointBoth,
			Location: core.LocUserspace,
		},
		WrapFn: func(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
			maxFrame := int(base.IntOr(args, 0, DefaultMaxFrame))
			return New(conn, maxFrame)
		},
	})
}

// DroppedStreamsCounter is the telemetry counter name for reassembly
// streams discarded — on fragment loss/reorder, or evicted by the
// per-connection reassembly bounds — registered in the process registry
// (telemetry.Default()).
const DroppedStreamsCounter = "chunnel/http2/dropped_streams"

// MalformedFramesCounter counts malformed frames (short, or unknown
// frame type) discarded inside a received burst. A burst that still
// produced a message reports no error for them, so this counter keeps
// those discards visible.
const MalformedFramesCounter = "chunnel/http2/malformed_frames"

// New wraps conn with frame encoding. maxFrame bounds each fragment's
// payload; messages larger than maxFrame are split and reassembled.
func New(conn core.Conn, maxFrame int) (core.Conn, error) {
	if maxFrame <= 0 {
		return nil, fmt.Errorf("http2: invalid max frame %d", maxFrame)
	}
	return &frameConn{
		Conn:      conn,
		maxFrame:  maxFrame,
		dropped:   telemetry.Default().Counter(DroppedStreamsCounter),
		malformed: telemetry.Default().Counter(MalformedFramesCounter),
	}, nil
}

type frameConn struct {
	core.Conn
	maxFrame   int
	nextStream atomic.Uint32
	// dropped and malformed are the shared process-wide discard
	// counters, resolved once at wrap time so the receive path never
	// touches the registry.
	dropped   *telemetry.Counter
	malformed *telemetry.Counter

	// sendScratch and recvScratch are the connection's reusable burst
	// arrays. A caller takes one by swapping nil in and puts it back when
	// its call below returns, so no lock is held across that call; a
	// concurrent caller that finds nil uses a fresh one.
	sendScratch atomic.Pointer[fragBurst]
	recvScratch atomic.Pointer[[recvBurst]*wire.Buf]

	mu sync.Mutex
	// The streams under reassembly, oldest first, as two parallel
	// arrays: bufs[i] holds open[i]'s fragments so far, concatenated, and
	// becomes the delivered message. A handful at most
	// (maxOpenStreams), so lookup is a scan.
	open   []openStream
	bufs   []*wire.Buf
	parked int // payload bytes held across bufs
	// ready queues the messages a burst completed beyond the one its
	// RecvBuf returned; nready mirrors its length so the single-frame
	// path skips the lock.
	ready     []*wire.Buf
	readyHead int
	nready    atomic.Int32
}

// fragBurst is a reusable send burst (boxed so the scratch pointer swap
// does not allocate a slice header).
type fragBurst struct{ bs []*wire.Buf }

// openStream identifies a message under reassembly.
type openStream struct {
	id   uint32
	next uint16 // the index its next fragment must carry
}

// fillHeader writes the frame header for fragment i of frags into h.
func fillHeader(h []byte, stream uint32, i, frags int) {
	ft := byte(frameData)
	if i > 0 {
		ft = frameContinuation
	}
	var flags byte
	if i == frags-1 {
		flags = flagEndStream
	}
	h[0] = ft
	h[1] = flags
	binary.LittleEndian.PutUint32(h[2:6], stream)
	binary.LittleEndian.PutUint16(h[6:8], uint16(i))
}

func (c *frameConn) Send(ctx context.Context, p []byte) error {
	if len(p) <= c.maxFrame {
		return c.SendBuf(ctx, wire.NewBufFrom(c.Headroom(), p))
	}
	return c.sendFragments(ctx, p)
}

// SendBuf frames the message in place. The common case — the whole
// message fits one frame — prepends the header into b's headroom and
// keeps the zero-copy path; oversized messages go down as one burst of
// fragments.
func (c *frameConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	if b.Len() <= c.maxFrame {
		stream := c.nextStream.Add(1)
		fillHeader(b.Prepend(headerLen), stream, 0, 1)
		return core.SendBuf(ctx, c.Conn, b)
	}
	err := c.sendFragments(ctx, b.Bytes())
	b.Release()
	return err
}

// SendBufs frames a burst. The common case — every message fits one
// frame — stamps all headers in one pass and hands the burst down
// whole; mixed bursts vectorize the maximal single-frame runs and send
// each oversized message as its own burst of fragments. BatchError.Sent
// counts whole messages at this layer (a message whose fragments were
// partially transmitted is not counted).
func (c *frameConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	small := true
	for _, b := range bs {
		if b.Len() > c.maxFrame {
			small = false
			break
		}
	}
	if small {
		for _, b := range bs {
			fillHeader(b.Prepend(headerLen), c.nextStream.Add(1), 0, 1)
		}
		return core.SendBufs(ctx, c.Conn, bs)
	}
	sent := 0
	i := 0
	for i < len(bs) {
		if bs[i].Len() <= c.maxFrame {
			j := i + 1
			for j < len(bs) && bs[j].Len() <= c.maxFrame {
				j++
			}
			run := bs[i:j]
			for _, b := range run {
				fillHeader(b.Prepend(headerLen), c.nextStream.Add(1), 0, 1)
			}
			if err := core.SendBufs(ctx, c.Conn, run); err != nil {
				core.ReleaseAll(bs[j:])
				return &core.BatchError{Sent: sent + core.BatchSent(err), Err: batchCause(err)}
			}
			sent += len(run)
			i = j
			continue
		}
		p := bs[i].Bytes()
		err := c.sendFragments(ctx, p)
		bs[i].Release()
		if err != nil {
			core.ReleaseAll(bs[i+1:])
			return &core.BatchError{Sent: sent, Err: err}
		}
		sent++
		i++
	}
	return nil
}

// batchCause unwraps a burst error from the layer below to the failure
// itself: this layer reports its own count of whole messages.
func batchCause(err error) error {
	if be, ok := err.(*core.BatchError); ok {
		return be.Err
	}
	return err
}

// Headroom implements core.HeadroomConn.
func (c *frameConn) Headroom() int { return headerLen + core.HeadroomOf(c.Conn) }

// sendFragments splits p across maxFrame-sized frames and hands them
// down as one burst: a transport with batch support spends one syscall
// on the whole message. The error is the message's — a burst that failed
// partway delivered no message, so how many fragments went out is not
// reported.
func (c *frameConn) sendFragments(ctx context.Context, p []byte) error {
	if len(p) > MaxMessage {
		return fmt.Errorf("%w: %d bytes", core.ErrMessageTooLarge, len(p))
	}
	frags := (len(p) + c.maxFrame - 1) / c.maxFrame
	if frags > 1<<16-1 {
		return fmt.Errorf("%w: %d fragments", core.ErrMessageTooLarge, frags)
	}
	stream := c.nextStream.Add(1)
	room := headerLen + core.HeadroomOf(c.Conn)
	// Fragments per backing: as many as one pooled backing holds, up to
	// the views a slab lends.
	per := min(wire.MaxViews, max(1, wire.MaxPooled/(room+c.maxFrame)))
	scratch := c.sendScratch.Swap(nil)
	if scratch == nil {
		scratch = new(fragBurst)
	}
	bs := scratch.bs[:0]
	for i := 0; i < frags; i += per {
		lo := i * c.maxFrame
		bs = c.appendFragments(bs, p[lo:min(lo+per*c.maxFrame, len(p))], room, stream, i, frags)
	}
	err := core.SendBufs(ctx, c.Conn, bs)
	for i := range bs {
		bs[i] = nil // the burst was consumed below; keep only the array
	}
	scratch.bs = bs
	c.sendScratch.Store(scratch)
	return batchCause(err)
}

// appendFragments lays part of a message out in one backing as its
// fragments first, first+1, ..., each behind room bytes of headroom for
// its frame header and the layers below, and appends them to bs as views
// of that backing (wire.Slab): one copy of the payload and one pooled
// backing for the lot.
func (c *frameConn) appendFragments(bs []*wire.Buf, part []byte, room int, stream uint32, first, frags int) []*wire.Buf {
	n := (len(part) + c.maxFrame - 1) / c.maxFrame
	backing := wire.NewBuf(0, n*room+len(part))
	dst := backing.Bytes()
	s := wire.Share(backing)
	at := 0
	for j := 0; j < n; j++ {
		payload := part[j*c.maxFrame : min((j+1)*c.maxFrame, len(part))]
		end := at + room + copy(dst[at+room:], payload)
		bs = append(bs, s.Lend(at, at+room, end))
		fillHeader(bs[len(bs)-1].Prepend(headerLen), stream, first+j, frags)
		at = end
	}
	s.Done()
	return bs
}

func (c *frameConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

// RecvBuf reassembles the next message. Single-frame messages — the
// common case — are returned as the transport's buffer with the header
// trimmed off: zero copies, one receive below. A frame that leaves a
// stream open means the rest of a fragmented message is behind it, and
// only then is the remainder taken with burst receives.
func (c *frameConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	if msg := c.popReady(); msg != nil {
		return msg, nil
	}
	for {
		fb, err := core.RecvBuf(ctx, c.Conn)
		if err != nil {
			return nil, err
		}
		msg, open, err := c.processFrame(fb)
		if err != nil {
			return nil, err
		}
		if msg != nil {
			return msg, nil
		}
		if open {
			return c.recvBurstMessage(ctx)
		}
	}
}

// recvBurstMessage returns the next message with burst receives into
// the connection's scratch, queueing any further messages the same
// burst completed for the calls that follow.
func (c *frameConn) recvBurstMessage(ctx context.Context) (*wire.Buf, error) {
	scratch := c.recvScratch.Swap(nil)
	if scratch == nil {
		scratch = new([recvBurst]*wire.Buf)
	}
	n, err := c.recvMessages(ctx, scratch[:])
	var msg *wire.Buf
	if n > 0 {
		msg = scratch[0]
		c.pushReady(scratch[1:n])
		for i := range scratch[:n] {
			scratch[i] = nil
		}
	}
	c.recvScratch.Store(scratch)
	return msg, err
}

func (c *frameConn) popReady() *wire.Buf {
	if c.nready.Load() == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readyHead == len(c.ready) {
		return nil
	}
	msg := c.ready[c.readyHead]
	c.ready[c.readyHead] = nil
	c.readyHead++
	if c.readyHead == len(c.ready) {
		c.ready, c.readyHead = c.ready[:0], 0
	}
	c.nready.Add(-1)
	return msg
}

func (c *frameConn) pushReady(msgs []*wire.Buf) {
	if len(msgs) == 0 {
		return
	}
	c.mu.Lock()
	c.ready = append(c.ready, msgs...)
	c.nready.Add(int32(len(msgs)))
	c.mu.Unlock()
}

// processFrame absorbs one arriving frame, consuming fb in every case:
// a completed message is returned (single-frame messages zero-copy, the
// header trimmed in place); a fragment joins its stream's reassembly
// buffer and returns nil; malformed frames are an error. open reports
// whether any stream is left under reassembly.
func (c *frameConn) processFrame(fb *wire.Buf) (msg *wire.Buf, open bool, err error) {
	f := fb.Bytes()
	if len(f) < headerLen {
		n := len(f)
		fb.Release()
		return nil, false, fmt.Errorf("http2: short frame (%d bytes)", n)
	}
	ft, flags := f[0], f[1]
	id := binary.LittleEndian.Uint32(f[2:6])
	idx := binary.LittleEndian.Uint16(f[6:8])
	if ft != frameData && ft != frameContinuation {
		fb.Release()
		return nil, false, fmt.Errorf("http2: unknown frame type %#x", ft)
	}
	fb.TrimFront(headerLen)
	end := flags&flagEndStream != 0

	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.findLocked(id)
	var want uint16
	if i >= 0 {
		want = c.open[i].next
	}
	switch {
	case idx != want:
		// Fragment loss or reorder below us: the stream cannot be
		// reassembled. Drop it *visibly* (counters) — and pair with
		// the reliability chunnel on lossy transports (see the
		// package documentation).
		if i >= 0 {
			c.removeLocked(i).Release()
		}
		c.dropped.Inc()
		fb.Release()
	case i < 0 && end:
		msg = fb // single-frame message: zero-copy
	default:
		// A fragment of a multi-frame message is copied in behind its
		// stream's earlier ones and released at once: one right-sized
		// buffer per stream, one copy per byte, and no datagram-sized
		// receive buffer pinned per parked fragment.
		if i < 0 {
			i = len(c.open)
			c.open = append(c.open, openStream{id: id})
			c.bufs = append(c.bufs, newReassembly(fb.Len()))
		}
		c.parked += fb.Len()
		c.bufs[i] = appendFragment(c.bufs[i], fb.Bytes())
		fb.Release()
		if end {
			msg = c.removeLocked(i)
		} else {
			c.open[i].next++
			c.boundLocked()
		}
	}
	return msg, len(c.open) > 0, nil
}

// findLocked returns the position of stream id in the open list, or -1.
func (c *frameConn) findLocked(id uint32) int {
	for i := range c.open {
		if c.open[i].id == id {
			return i
		}
	}
	return -1
}

// removeLocked takes stream i out of the open list and returns its
// buffer, which the caller now owns.
func (c *frameConn) removeLocked(i int) *wire.Buf {
	b := c.bufs[i]
	c.parked -= b.Len()
	c.open = slices.Delete(c.open, i, i+1)
	c.bufs = slices.Delete(c.bufs, i, i+1)
	return b
}

// boundLocked enforces the reassembly bounds by discarding the stream
// that has been open longest — the one least likely to still complete —
// until they hold again.
func (c *frameConn) boundLocked() {
	for len(c.open) > maxOpenStreams || c.parked > MaxMessage {
		c.removeLocked(0).Release()
		c.dropped.Inc()
	}
}

// reassemblyStart is the least room a new reassembly buffer starts with:
// enough that a 16 KiB message never has to move.
const reassemblyStart = 16 << 10

// newReassembly returns an empty buffer for a stream whose first
// fragment is first bytes long.
func newReassembly(first int) *wire.Buf {
	b := wire.NewBuf(wire.DefaultHeadroom, max(2*first, reassemblyStart))
	b.Truncate(0)
	return b
}

// appendFragment copies p in behind dst's bytes, moving to a buffer of
// twice the size when dst's tailroom runs out, and returns the buffer
// holding the result.
func appendFragment(dst *wire.Buf, p []byte) *wire.Buf {
	if dst.Tailroom() < len(p) {
		grown := wire.NewBuf(wire.DefaultHeadroom, 2*(dst.Len()+len(p)))
		grown.Truncate(copy(grown.Bytes(), dst.Bytes()))
		dst.Release()
		dst = grown
	}
	copy(dst.Extend(len(p)), p)
	return dst
}

// RecvBufs receives a burst of frames and reassembles in one pass:
// completed messages compact into into's prefix, fragments join their
// streams, and malformed frames drop individually — each counted in
// MalformedFramesCounter so a peer sending garbage stays visible even
// when the burst still produced messages (the call only fails when a
// burst produced no messages and at least one frame was bad).
func (c *frameConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	// Messages an earlier RecvBuf's burst completed come first.
	n := 0
	for n < len(into) {
		msg := c.popReady()
		if msg == nil {
			break
		}
		into[n] = msg
		n++
	}
	if n > 0 {
		return n, nil
	}
	return c.recvMessages(ctx, into)
}

// recvMessages is the burst receive loop under RecvBufs and under
// RecvBuf's fragmented path: it blocks until a burst of frames completes
// at least one message.
func (c *frameConn) recvMessages(ctx context.Context, into []*wire.Buf) (int, error) {
	for {
		n, err := core.RecvBufs(ctx, c.Conn, into)
		if err != nil {
			return 0, err
		}
		out := 0
		var firstErr error
		for i := 0; i < n; i++ {
			// out ≤ i at every write: each consumed frame yields at most
			// one message, so compaction never overtakes the read index.
			msg, _, err := c.processFrame(into[i])
			if err != nil {
				c.malformed.Inc()
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if msg != nil {
				into[out] = msg
				out++
			}
		}
		if out > 0 {
			return out, nil
		}
		if firstErr != nil {
			return 0, firstErr
		}
		// Whole burst was fragments (or dropped streams): go again.
	}
}

// Close releases everything the connection still holds: partially
// reassembled streams and completed messages nobody received.
func (c *frameConn) Close() error {
	err := c.Conn.Close()
	for {
		msg := c.popReady()
		if msg == nil {
			break
		}
		msg.Release()
	}
	c.mu.Lock()
	for len(c.open) > 0 {
		c.removeLocked(len(c.open) - 1).Release()
	}
	c.mu.Unlock()
	return err
}
