// Package transport provides the base connections Bertha chunnel stacks
// compose over: in-process pipes, UDP sockets, UNIX datagram sockets, a
// peer-demultiplexing datagram listener, and a lossy wrapper for testing
// chunnels under adverse network schedules.
//
// All transports implement core.Conn with datagram semantics: one Send is
// one Recv, message boundaries preserved.
package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// DefaultPipeCapacity is the per-direction buffered message capacity of an
// in-process pipe.
const DefaultPipeCapacity = 256

// pipeHalf is one direction of an in-process pipe connection. The
// channels carry owned wire.Buf messages, so the SendBuf/RecvBuf path
// moves a message across the pipe without copying it at all.
type pipeHalf struct {
	local, remote core.Addr
	tel           *netCounters
	send          chan *wire.Buf
	recv          chan *wire.Buf

	closeOnce  sync.Once
	closed     chan struct{} // closed when *this* half is closed
	peerClosed chan struct{} // closed when the peer half is closed

	// A dialed client end hands its server end, peer, to the listener
	// to at its first send or receive (ready), as a UDP dial opens its
	// socket at first use: an end closed unused never reaches Accept.
	// to is nil on every other end.
	to   *pipeListener
	peer *pipeHalf
	hand atomic.Int32 // handPending, handBusy or handDone
}

const (
	handPending = iota
	handBusy
	handDone
)

// ready hands the server end of a dialed client end to its listener,
// unless that is done or under way. A listener that closed first gets
// nothing: the server end is closed instead, and the call fails with
// ErrClosed. A call that finds the handover under way goes on: what it
// sends waits in the pipe for the server end.
func (p *pipeHalf) ready(ctx context.Context) error {
	if p.to == nil || p.hand.Load() == handDone || !p.hand.CompareAndSwap(handPending, handBusy) {
		return nil
	}
	select {
	case p.to.accept <- p.peer:
		p.hand.Store(handDone)
		return nil
	case <-p.to.closed:
	case <-p.closed:
	case <-ctx.Done():
		p.hand.Store(handPending)
		return ctx.Err()
	}
	p.peer.Close()
	p.hand.Store(handDone)
	return core.ErrClosed
}

// Pipe returns a connected in-process pair: what one side sends, the other
// receives. Each direction buffers up to capacity messages (Send blocks
// when full). Payloads are copied on Send, so callers may reuse buffers.
func Pipe(a, b core.Addr, capacity int) (core.Conn, core.Conn) {
	if capacity <= 0 {
		capacity = DefaultPipeCapacity
	}
	ab := make(chan *wire.Buf, capacity)
	ba := make(chan *wire.Buf, capacity)
	ca := make(chan struct{})
	cb := make(chan struct{})
	tel := countersFor("pipe")
	x := &pipeHalf{local: a, remote: b, tel: tel, send: ab, recv: ba, closed: ca, peerClosed: cb}
	y := &pipeHalf{local: b, remote: a, tel: tel, send: ba, recv: ab, closed: cb, peerClosed: ca}
	return x, y
}

// Send implements core.Conn (copies p, per the ownership convention).
func (p *pipeHalf) Send(ctx context.Context, b []byte) error {
	return p.SendBuf(ctx, wire.NewBufFrom(wire.DefaultHeadroom, b))
}

// SendBuf hands the buffer to the peer without copying.
func (p *pipeHalf) SendBuf(ctx context.Context, b *wire.Buf) error {
	if err := p.ready(ctx); err != nil {
		b.Release()
		return err
	}
	// Fail fast on a known-closed pipe so Send after Close is
	// deterministic even when buffer space remains.
	select {
	case <-p.closed:
		b.Release()
		return core.ErrClosed
	case <-p.peerClosed:
		b.Release()
		return core.ErrClosed
	default:
	}
	// A send the channel has room for does not ask ctx for its Done
	// channel, which a context makes on first request.
	select {
	case p.send <- b:
		p.tel.sent.Inc()
		p.reap()
		return nil
	default:
	}
	select {
	case <-p.closed:
		b.Release()
		return core.ErrClosed
	case <-p.peerClosed:
		b.Release()
		return core.ErrClosed
	case <-ctx.Done():
		b.Release()
		return ctx.Err()
	case p.send <- b:
		p.tel.sent.Inc()
		p.reap()
		return nil
	}
}

// reap releases what is parked in both directions once both halves are
// closed: nobody can receive it any more. Close calls it, and so does a
// send that may have slipped a message in behind the last Close.
func (p *pipeHalf) reap() {
	select {
	case <-p.closed:
	default:
		return
	}
	select {
	case <-p.peerClosed:
	default:
		return
	}
	for _, ch := range [...]chan *wire.Buf{p.send, p.recv} {
		for parked := true; parked; {
			select {
			case b := <-ch:
				b.Release()
			default:
				parked = false
			}
		}
	}
}

// SendBufs enqueues the burst with one closed-state check up front;
// each message still lands in the channel individually (capacity
// backpressure applies per message). The first failure aborts the burst
// and releases the unsent tail.
func (p *pipeHalf) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	if err := p.ready(ctx); err != nil {
		core.ReleaseAll(bs)
		return &core.BatchError{Sent: 0, Err: err}
	}
	select {
	case <-p.closed:
		core.ReleaseAll(bs)
		return &core.BatchError{Sent: 0, Err: core.ErrClosed}
	case <-p.peerClosed:
		core.ReleaseAll(bs)
		return &core.BatchError{Sent: 0, Err: core.ErrClosed}
	default:
	}
	for i, b := range bs {
		select {
		case <-p.closed:
			p.tel.sent.Add(uint64(i)) // count the partial send, like socketConn
			core.ReleaseAll(bs[i:])
			return &core.BatchError{Sent: i, Err: core.ErrClosed}
		case <-p.peerClosed:
			p.tel.sent.Add(uint64(i))
			core.ReleaseAll(bs[i:])
			return &core.BatchError{Sent: i, Err: core.ErrClosed}
		case <-ctx.Done():
			p.tel.sent.Add(uint64(i))
			core.ReleaseAll(bs[i:])
			return &core.BatchError{Sent: i, Err: ctx.Err()}
		case p.send <- b:
		}
	}
	p.tel.sent.Add(uint64(len(bs)))
	p.reap()
	return nil
}

// RecvBufs blocks for the first message, then drains whatever the peer
// has already buffered — a burst costs one blocking receive.
func (p *pipeHalf) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	b, err := p.RecvBuf(ctx)
	if err != nil {
		return 0, err
	}
	into[0] = b
	n := 1
	for n < len(into) {
		select {
		case b := <-p.recv:
			into[n] = b
			n++
		default:
			p.tel.recvd.Add(uint64(n - 1)) // RecvBuf counted the first
			return n, nil
		}
	}
	p.tel.recvd.Add(uint64(n - 1))
	return n, nil
}

// Headroom: transports terminate the stack, no headers below.
func (p *pipeHalf) Headroom() int { return 0 }

// Recv implements core.Conn.
func (p *pipeHalf) Recv(ctx context.Context) ([]byte, error) {
	b, err := p.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

// RecvBuf implements core.BufConn.
func (p *pipeHalf) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	if err := p.ready(ctx); err != nil {
		return nil, err
	}
	// Drain buffered messages even after close so no data is lost, but
	// fail once both the buffer is empty and a side is closed.
	select {
	case b := <-p.recv:
		p.tel.recvd.Inc()
		return b, nil
	default:
	}
	select {
	case b := <-p.recv:
		p.tel.recvd.Inc()
		return b, nil
	case <-p.closed:
		return nil, core.ErrClosed
	case <-p.peerClosed:
		// Peer closed: deliver anything still buffered.
		select {
		case b := <-p.recv:
			p.tel.recvd.Inc()
			return b, nil
		default:
			return nil, core.ErrClosed
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// LocalAddr implements core.Conn.
func (p *pipeHalf) LocalAddr() core.Addr { return p.local }

// RemoteAddr implements core.Conn.
func (p *pipeHalf) RemoteAddr() core.Addr { return p.remote }

// Direct implements core.DirectConn.
func (p *pipeHalf) Direct() bool { return true }

// Close implements core.Conn.
func (p *pipeHalf) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	p.reap()
	return nil
}

// PipeNetwork is an in-process datagram "network": named listeners on
// virtual hosts, with Dial connecting a fresh pipe to a listener. It lets
// a single test process stand in for multiple hosts (addresses carry a
// host identity for locality decisions).
type PipeNetwork struct {
	mu        sync.Mutex
	listeners map[string]*pipeListener // key: addr string
	nextPort  int
	capacity  int
}

// NewPipeNetwork returns an empty in-process network.
func NewPipeNetwork() *PipeNetwork {
	return &PipeNetwork{listeners: make(map[string]*pipeListener), capacity: DefaultPipeCapacity}
}

// Listen binds a listener at the given virtual host and address name.
func (n *PipeNetwork) Listen(host, name string) (core.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[name]; exists {
		return nil, fmt.Errorf("transport: pipe address %q already bound", name)
	}
	l := &pipeListener{
		net:    n,
		addr:   core.Addr{Net: "pipe", Host: host, Addr: name},
		accept: make(chan core.Conn, 64),
		closed: make(chan struct{}),
	}
	n.listeners[name] = l
	return l, nil
}

// Dial connects to a listener in this network. The caller's host identity
// is taken from the dialing address when provided via DialFrom; plain Dial
// uses an anonymous host.
func (n *PipeNetwork) Dial(ctx context.Context, addr core.Addr) (core.Conn, error) {
	return n.DialFrom(ctx, "", addr)
}

// DialFrom connects to a listener, labeling the client side with the given
// host identity (so host-locality checks reflect the virtual topology).
// The listener must exist now; it is handed the server end at the client
// end's first send or receive.
func (n *PipeNetwork) DialFrom(ctx context.Context, fromHost string, addr core.Addr) (core.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr.Addr]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: no pipe listener at %q", addr.Addr)
	}
	n.nextPort++
	port := n.nextPort
	capacity := n.capacity
	n.mu.Unlock()

	clientAddr := core.Addr{Net: "pipe", Host: fromHost, Addr: fmt.Sprintf("%s#%d", addr.Addr, port)}
	cli, srv := Pipe(clientAddr, l.addr, capacity)
	c := cli.(*pipeHalf)
	c.to, c.peer = l, srv.(*pipeHalf)
	return c, nil
}

// Dialer returns a core.Dialer dialing into this network from the given
// host identity.
func (n *PipeNetwork) Dialer(fromHost string) core.Dialer {
	return core.DialerFunc(func(ctx context.Context, addr core.Addr) (core.Conn, error) {
		return n.DialFrom(ctx, fromHost, addr)
	})
}

type pipeListener struct {
	net    *PipeNetwork
	addr   core.Addr
	accept chan core.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept(ctx context.Context) (core.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, core.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *pipeListener) Addr() core.Addr { return l.addr }

func (l *pipeListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr.Addr)
		l.net.mu.Unlock()
	})
	return nil
}
