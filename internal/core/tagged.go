package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/internal/wire"
)

// taggedConn multiplexes negotiation control messages and application data
// over one base connection by prefixing each datagram with a one-byte
// channel tag. It also answers duplicate ClientHellos (retransmitted over
// lossy transports) with the cached ServerHello so the handshake is
// idempotent.
//
// The data channel is a Transform — Encode stamps the data tag, Decode
// strips it and handles control traffic that arrives late in place — so
// the connection the negotiated stack wraps is WrapTransform's, reading
// from a muxSource.
type taggedConn struct {
	raw Datapath

	mu sync.Mutex
	// early holds data messages that arrived during the handshake, tag
	// still on, for the data channel to decode like any other.
	early []*wire.Buf

	ctrlMu    sync.Mutex
	ctrlNonce uint64
	ctrlReply []byte

	// peerClosed records that the peer tore the connection down (an
	// explicit close message, or a foreign handshake from a reused
	// address).
	peerClosed atomic.Bool
}

func newTaggedConn(raw Conn) *taggedConn {
	return &taggedConn{raw: Resolve(raw)}
}

// sendTagged transmits one message on the given channel, copying p into
// a pooled buffer.
func (t *taggedConn) sendTagged(ctx context.Context, tag byte, p []byte) error {
	b := wire.NewBufFrom(1, p)
	b.Prepend(1)[0] = tag
	return t.raw.SendBuf(ctx, b)
}

// recvCtrl returns the next control message as a slice the caller owns
// (control messages are decoded with aliasing, so they must not share
// pooled backing storage), keeping any data messages that arrive first
// (possible when the peer finished its handshake and started sending
// data before our control read) for the data channel.
func (t *taggedConn) recvCtrl(ctx context.Context) ([]byte, error) {
	for {
		b, err := t.raw.RecvBuf(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			b.Release()
			return nil, errEmptyDatagram
		}
		switch b.Bytes()[0] {
		case tagCtrl:
			b.TrimFront(1)
			return b.CopyOut(), nil
		case tagData:
			// Unpooled: it may wait out the whole handshake.
			early := wire.WrapBuf(b.CopyOut())
			t.mu.Lock()
			t.early = append(t.early, early)
			t.mu.Unlock()
		default:
			b.Release() // unknown tag: drop (forward compatibility)
		}
	}
}

// firstCtrl returns a server connection's first message, which must be
// a control message (the ClientHello), as a slice the caller owns.
func (t *taggedConn) firstCtrl(ctx context.Context) ([]byte, error) {
	b, err := t.raw.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	if b.Len() == 0 || b.Bytes()[0] != tagCtrl {
		b.Release()
		return nil, errNotCtrl
	}
	b.TrimFront(1)
	return b.CopyOut(), nil
}

var errNotCtrl = errors.New("bertha: first datagram is not a control message")

// setCtrlResponder caches the ServerHello to replay when a duplicate
// ClientHello with the given nonce arrives after the handshake.
func (t *taggedConn) setCtrlResponder(nonce uint64, reply []byte) {
	t.ctrlMu.Lock()
	t.ctrlNonce = nonce
	t.ctrlReply = reply
	t.ctrlMu.Unlock()
}

// muxDroppedCounter counts empty datagrams (nothing to carry a tag) on
// negotiated connections' data channels.
const muxDroppedCounter = "core/mux/decode_dropped"

var errEmptyDatagram = errors.New("bertha: empty datagram on tagged connection")

// dataConn returns the Conn the negotiated chunnel stack wraps.
func (t *taggedConn) dataConn() Conn {
	return WrapTransform(&muxSource{Datapath: t.raw, t: t}, t, muxDroppedCounter)
}

// Overhead is the tag byte.
func (t *taggedConn) Overhead() int { return 1 }

// Encode stamps the data tag.
func (t *taggedConn) Encode(b *wire.Buf) error {
	b.Prepend(1)[0] = tagData
	return nil
}

// Decode strips the tag from a data message and consumes everything
// else: control traffic is handled in place, and unknown tags and data
// behind an observed close are dropped.
func (t *taggedConn) Decode(b *wire.Buf) (bool, error) {
	if b.Len() == 0 {
		return false, errEmptyDatagram
	}
	tag := b.Bytes()[0]
	b.TrimFront(1)
	switch tag {
	case tagData:
		return !t.peerClosed.Load(), nil
	case tagCtrl:
		t.handleLateCtrl(b.Bytes())
	}
	return false, nil
}

// muxSource is where the data channel receives from: data kept from the
// handshake first, then the base connection — and nothing once the peer
// has closed, which is how a close that Decode consumed ends the receive
// that saw it. Its Close announces the teardown.
type muxSource struct {
	Datapath
	t *taggedConn
}

// takeEarly returns the oldest message kept from the handshake, if any.
func (t *taggedConn) takeEarly() *wire.Buf {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.early) == 0 {
		return nil
	}
	b := t.early[0]
	t.early = t.early[1:]
	return b
}

func (s *muxSource) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	if b := s.t.takeEarly(); b != nil {
		return b, nil
	}
	if s.t.peerClosed.Load() {
		return nil, ErrClosed
	}
	return s.Datapath.RecvBuf(ctx)
}

// RecvBufs delivers kept handshake-era data one message per call (it
// predates the batch path and is already unpooled). into is not empty:
// TransformConn answers an empty one itself.
func (s *muxSource) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if b := s.t.takeEarly(); b != nil {
		into[0] = b
		return 1, nil
	}
	if s.t.peerClosed.Load() {
		return 0, ErrClosed
	}
	return s.Datapath.RecvBufs(ctx, into)
}

// Close announces teardown to the peer (best effort) and closes the
// base connection. The announcement lets datagram peers release
// per-address state promptly.
func (s *muxSource) Close() error {
	if !s.t.peerClosed.Load() {
		_ = s.t.sendTagged(newLateCtx(lateCtrlTimeout), tagCtrl, []byte{msgClose})
	}
	return s.Datapath.Close()
}

// lateCtrlTimeout bounds the best-effort control sends an established
// connection makes without a caller's context: the close announcement
// and a ServerHello replay (Decode has none to give).
const lateCtrlTimeout = 50 * time.Millisecond

// lateCtx is the context of those sends, and of the work a resume sink
// does for a connection no caller waits on: no parent, and a deadline
// (lateCtrlTimeout for the sends) after it was made. It arms no timer
// and makes no Done channel until something asks for the channel. A
// datagram socket only reads the deadline, and its send into a socket
// buffer that is not full does not block, so a notice costs the one
// small object lateCtx is, where context.WithTimeout costs four, a
// timer among them.
//
// With a parent (attemptCtx) it also ends when the parent does: the
// bound of one wait for a peer's answer inside a caller's context. A
// socket receive asks for Done only once it has parked past its slice,
// so a wait answered within the slice arms nothing, and release disarms
// what Done armed.
type lateCtx struct {
	parent   context.Context // Background when there is none
	deadline time.Time
	mu       sync.Mutex
	// armed and disarm are made by Done: the parent bounded by the
	// deadline, with its timer.
	armed  context.Context
	disarm context.CancelFunc
}

func newLateCtx(d time.Duration) *lateCtx {
	return &lateCtx{parent: context.Background(), deadline: time.Now().Add(d)}
}

func (c *lateCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *lateCtx) Value(key any) any           { return c.parent.Value(key) }

// Done returns a channel closed at the deadline or the parent's end,
// armed now if it was not before.
func (c *lateCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed, c.disarm = context.WithDeadline(c.parent, c.deadline)
	}
	return c.armed.Done()
}

// Err agrees with Done: unarmed, it reads the parent and the clock.
func (c *lateCtx) Err() error {
	c.mu.Lock()
	armed := c.armed
	c.mu.Unlock()
	if armed != nil {
		return armed.Err()
	}
	if err := c.parent.Err(); err != nil {
		return err
	}
	if time.Now().Before(c.deadline) {
		return nil
	}
	return context.DeadlineExceeded
}

// release disarms what Done armed, if anything: a timer, and a
// registration with the parent that would otherwise live as long as the
// parent does. A nil c has nothing to release.
func (c *lateCtx) release() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disarm != nil {
		c.disarm()
	}
}

// handleLateCtrl processes a control message on an established
// connection: replay the cached ServerHello for retransmitted hellos of
// this connection, and treat an explicit close — or a hello from a
// *different* connection attempt (datagram source address reuse) — as
// the peer tearing this connection down. It does not keep msg.
func (t *taggedConn) handleLateCtrl(msg []byte) {
	if len(msg) == 0 {
		return
	}
	switch msg[0] {
	case msgClientHello:
		t.ctrlMu.Lock()
		nonce, reply := t.ctrlNonce, t.ctrlReply
		t.ctrlMu.Unlock()
		if reply == nil {
			return
		}
		// The nonce sits right after [type, version] in the encoding.
		d := wire.NewDecoder(msg)
		d.Uint8() // type
		d.Uint8() // version
		got := d.Uint64()
		if d.Err() != nil {
			return
		}
		if got == nonce {
			// Retransmission of this connection's hello: replay.
			_ = t.sendTagged(newLateCtx(lateCtrlTimeout), tagCtrl, reply)
			return
		}
		// A new connection attempt from a reused address: this
		// connection is dead.
		fallthrough
	case msgClose:
		// Close the base connection too: on demultiplexing datagram
		// transports this releases the per-address peer entry, so a new
		// connection from a reused source address starts fresh.
		t.peerClosed.Store(true)
		t.raw.Close()
	}
}
