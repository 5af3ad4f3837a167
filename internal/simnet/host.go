package simnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bertha-net/bertha/internal/core"
	wbuf "github.com/bertha-net/bertha/internal/wire"
)

// Host is a machine on the fabric. Services listen at
// sim://<host>/<host>:<service>; each outbound connection gets a unique
// source address so replies demultiplex correctly.
type Host struct {
	net  *Network
	name string
	sw   *Switch

	up   *wire // host -> switch
	down *wire // switch -> host

	mu       sync.Mutex
	services map[string]*svcListener
	flows    map[string]*hostConn // by local flow address
	nextFlow atomic.Uint64
	done     chan struct{}
	once     sync.Once
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Switch returns the switch the host is attached to.
func (h *Host) Switch() *Switch { return h.sw }

// Addr returns the fabric address for a service on this host.
func (h *Host) Addr(service string) core.Addr {
	return core.Addr{Net: "sim", Host: h.name, Addr: h.name + ":" + service}
}

// Listen binds a demultiplexing listener for the named service.
func (h *Host) Listen(service string) (core.Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.services[service]; dup {
		return nil, fmt.Errorf("simnet: service %q already bound on %s", service, h.name)
	}
	l := &svcListener{
		host:   h,
		addr:   h.Addr(service),
		peers:  map[string]*hostConn{},
		accept: make(chan *hostConn, 256),
		closed: make(chan struct{}),
	}
	h.services[service] = l
	return l, nil
}

// Dial opens a connection to a service address anywhere on the fabric.
func (h *Host) Dial(ctx context.Context, addr core.Addr) (core.Conn, error) {
	if addr.Net != "sim" {
		return nil, fmt.Errorf("simnet: cannot dial %q address %s", addr.Net, addr)
	}
	flow := fmt.Sprintf("%s:flow%d", h.name, h.nextFlow.Add(1))
	conn := &hostConn{
		host:   h,
		local:  core.Addr{Net: "sim", Host: h.name, Addr: flow},
		remote: addr,
		recv:   make(chan *wbuf.Buf, 1024),
		closed: make(chan struct{}),
	}
	h.mu.Lock()
	if h.flows == nil {
		h.flows = map[string]*hostConn{}
	}
	h.flows[flow] = conn
	h.mu.Unlock()
	return conn, nil
}

// Dialer returns a core.Dialer for this host.
func (h *Host) Dialer() core.Dialer {
	return core.DialerFunc(h.Dial)
}

// send pushes a packet onto the uplink.
func (h *Host) send(pkt Packet) {
	h.up.send(pkt)
}

// deliver routes an arriving packet to a flow or service listener.
func (h *Host) deliver(pkt Packet) {
	h.mu.Lock()
	// Outbound flow reply?
	if conn, ok := h.flows[pkt.Dst.Addr]; ok {
		h.mu.Unlock()
		conn.push(pkt.Payload)
		return
	}
	// Service?
	service := ""
	if i := len(h.name) + 1; len(pkt.Dst.Addr) > i && pkt.Dst.Addr[:i] == h.name+":" {
		service = pkt.Dst.Addr[i:]
	}
	l, ok := h.services[service]
	h.mu.Unlock()
	if !ok {
		return // no listener: drop
	}
	l.deliver(pkt)
}

func (h *Host) close() {
	h.once.Do(func() {
		close(h.done)
		h.up.close()
		h.down.close()
		h.mu.Lock()
		for _, l := range h.services {
			l.closeLocked()
		}
		for _, c := range h.flows {
			c.closePeer()
		}
		h.mu.Unlock()
	})
}

func (h *Host) dropFlow(flow string) {
	h.mu.Lock()
	delete(h.flows, flow)
	h.mu.Unlock()
}

func (h *Host) dropService(service string) {
	h.mu.Lock()
	delete(h.services, service)
	h.mu.Unlock()
}

// svcListener demultiplexes arriving packets by source address.
type svcListener struct {
	host *Host
	addr core.Addr

	mu     sync.Mutex
	peers  map[string]*hostConn
	accept chan *hostConn
	closed chan struct{}
	once   sync.Once
}

func (l *svcListener) deliver(pkt Packet) {
	key := pkt.Src.String()
	l.mu.Lock()
	conn, ok := l.peers[key]
	if !ok {
		conn = &hostConn{
			host:     l.host,
			local:    l.addr,
			remote:   pkt.Src,
			recv:     make(chan *wbuf.Buf, 1024),
			closed:   make(chan struct{}),
			listener: l,
		}
		l.peers[key] = conn
		select {
		case l.accept <- conn:
		default:
			delete(l.peers, key)
			l.mu.Unlock()
			return // accept backlog full
		}
	}
	l.mu.Unlock()
	conn.push(pkt.Payload)
}

func (l *svcListener) Accept(ctx context.Context) (core.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, core.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *svcListener) Addr() core.Addr { return l.addr }

func (l *svcListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		service := ""
		if i := len(l.host.name) + 1; len(l.addr.Addr) > i {
			service = l.addr.Addr[i:]
		}
		l.host.dropService(service)
		l.closePeers()
	})
	return nil
}

// closeLocked is Close for the host, which holds its own lock and drops
// the service itself.
func (l *svcListener) closeLocked() {
	l.once.Do(func() {
		close(l.closed)
		l.closePeers()
	})
}

// closePeers closes every peer connection. The table is read under the
// listener's lock — a peer closing itself edits it (dropPeer) — and the
// peers are closed outside it: that same peer holds its once while it
// waits for the lock.
func (l *svcListener) closePeers() {
	l.mu.Lock()
	peers := make([]*hostConn, 0, len(l.peers))
	for _, c := range l.peers {
		peers = append(peers, c)
	}
	l.mu.Unlock()
	for _, c := range peers {
		c.closePeer()
	}
}

func (l *svcListener) dropPeer(key string) {
	l.mu.Lock()
	delete(l.peers, key)
	l.mu.Unlock()
}

// hostConn is a connected fabric endpoint (either a dialed flow or a
// listener's per-peer connection).
type hostConn struct {
	host          *Host
	local, remote core.Addr
	recv          chan *wbuf.Buf
	closed        chan struct{}
	once          sync.Once
	listener      *svcListener // nil for dialed flows
}

// push copies an arriving packet payload into a pooled buffer. Packet
// payloads stay plain []byte on the fabric itself because switches may
// duplicate a packet to several ports; only the final per-host copy is
// pooled.
func (c *hostConn) push(p []byte) {
	b := wbuf.NewBufFrom(wbuf.DefaultHeadroom, p)
	select {
	case c.recv <- b:
	default:
		b.Release() // receiver overrun: drop
	}
}

func (c *hostConn) Send(ctx context.Context, p []byte) error {
	select {
	case <-c.closed:
		return core.ErrClosed
	default:
	}
	buf := make([]byte, len(p))
	copy(buf, p)
	c.host.send(Packet{Src: c.local, Dst: c.remote, Payload: buf})
	return nil
}

// SendBuf copies into a fabric packet (packets may be duplicated by
// switches, so they cannot carry pooled buffers) and releases b.
func (c *hostConn) SendBuf(ctx context.Context, b *wbuf.Buf) error {
	err := c.Send(ctx, b.Bytes())
	b.Release()
	return err
}

// SendBufs injects the burst onto the fabric with one closed-state
// check up front. Each message is still copied into its own Packet
// (switches may duplicate packets across ports); all buffers are
// released here.
func (c *hostConn) SendBufs(ctx context.Context, bs []*wbuf.Buf) error {
	select {
	case <-c.closed:
		core.ReleaseAll(bs)
		return &core.BatchError{Sent: 0, Err: core.ErrClosed}
	default:
	}
	for _, b := range bs {
		p := b.Bytes()
		buf := make([]byte, len(p))
		copy(buf, p)
		c.host.send(Packet{Src: c.local, Dst: c.remote, Payload: buf})
		b.Release()
	}
	return nil
}

// RecvBufs blocks for the first message, then drains whatever the
// fabric has already delivered to this endpoint's queue.
func (c *hostConn) RecvBufs(ctx context.Context, into []*wbuf.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return 0, err
	}
	into[0] = b
	n := 1
	for n < len(into) {
		select {
		case b := <-c.recv:
			into[n] = b
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

// Headroom: transports terminate the stack, no headers below.
func (c *hostConn) Headroom() int { return 0 }

func (c *hostConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

// RecvBuf implements core.BufConn.
func (c *hostConn) RecvBuf(ctx context.Context) (*wbuf.Buf, error) {
	select {
	case b := <-c.recv:
		return b, nil
	default:
	}
	select {
	case b := <-c.recv:
		return b, nil
	case <-c.closed:
		return nil, core.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *hostConn) LocalAddr() core.Addr  { return c.local }
func (c *hostConn) RemoteAddr() core.Addr { return c.remote }

func (c *hostConn) Close() error {
	c.once.Do(func() {
		close(c.closed)
		if c.listener != nil {
			c.listener.dropPeer(c.remote.String())
		} else {
			c.host.dropFlow(c.local.Addr)
		}
	})
	return nil
}

func (c *hostConn) closePeer() {
	c.once.Do(func() { close(c.closed) })
}
