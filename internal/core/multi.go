package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// ConnectMulti establishes one logical connection to several peer
// endpoints at once — Listing 2: "since one end of this connection
// involves multiple endpoints, the argument passed into connect is a
// vector containing endpoint addresses... initial discovery and
// negotiation involves all endpoints."
//
// The group makes one discovery query, and every peer gets Connect's
// hello. All peers must resolve the DAG to the same implementation
// bindings (the compatibility check of §4.3 extended to groups), and the
// stack is built by the one assemble over every peer's connection: a
// chunnel implementing MultiWrapper (ordered multicast) takes them all
// at once, others wrap each. If no chunnel collapses the group, Send
// reaches every peer and Recv returns whichever peer's message arrives
// next. A group's data path is the network one: a peer that answers with
// a rendezvous ticket fails the group.
func (e *Endpoint) ConnectMulti(ctx context.Context, raws []Conn) (Conn, error) {
	if len(raws) == 0 {
		return nil, fmt.Errorf("%w: no endpoints", ErrNegotiation)
	}
	if len(raws) == 1 {
		return e.Connect(ctx, raws[0])
	}
	closeAll := func() {
		for _, raw := range raws {
			raw.Close()
		}
	}
	snap := e.registry.snapshot()
	host := hostOr(e.env.Host, raws[0].LocalAddr().Host)
	discovered := e.discoveredOffers(ctx, host)

	bases := make([]Conn, len(raws))
	hellos := make([]*ServerHello, len(raws))
	errs := make([]error, len(raws))
	var wg sync.WaitGroup
	for i, raw := range raws {
		tc := newTaggedConn(raw)
		bases[i] = tc.dataConn()
		wg.Add(1)
		go func() {
			defer wg.Done()
			hellos[i], errs[i] = e.hello(ctx, tc, snap, host, discovered)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			closeAll() // the hello traced the failure
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
	}
	fail := func(err error) (Conn, error) {
		closeAll()
		e.trace(SideClient, telemetry.TraceFailed, telemetry.TraceEvent{Detail: err.Error()})
		return nil, err
	}
	stack := hellos[0].Stack
	for i, sh := range hellos {
		switch {
		case len(sh.Ticket) > 0:
			return fail(fmt.Errorf("%w: peer %d spliced the connection, and a group cannot be spliced", ErrNegotiation, i))
		case !sameBindings(stack, sh.Stack):
			return fail(fmt.Errorf("%w: peer %d bound a different stack", ErrIncompatibleSpecs, i))
		}
		// A node takes the first parameters a peer contributed (the
		// group sequencer's address comes from any one of them).
		for n := range stack {
			if len(stack[n].Params) == 0 {
				stack[n].Params = sh.Stack[n].Params
			}
		}
	}
	conn, err := e.assemble(ctx, snap, stack, SideClient, false, bases...)
	if err != nil {
		return fail(err)
	}
	e.trace(SideClient, telemetry.TraceConnected, telemetry.TraceEvent{
		Deferred: telemetry.Detailf("%v").Value((*stackDesc)(&stack)),
	})
	e.traceCold(SideClient, "")
	return conn, nil
}

func sameBindings(a, b []ResolvedNode) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].ImplName != b[i].ImplName {
			return false
		}
	}
	return true
}

// fanConn is the group connection when no chunnel collapses the peers:
// Send reaches every peer, and the fan-in receives from all of them.
type fanConn struct{ *FanIn }

func (f fanConn) Send(ctx context.Context, p []byte) error {
	var firstErr error
	for _, c := range f.conns {
		if err := c.Send(ctx, p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SendBuf sends b's bytes to every peer and releases b. With it the
// connection is a BufConn, so a receive takes the fan-in's buffer as is.
func (f fanConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	err := f.Send(ctx, b.Bytes())
	b.Release()
	return err
}

// fanInBurst is how many messages a fan-in worker takes off its
// connection per receive, and fanInQueue how many the fan-in holds that
// no receive has taken: room for a pipelining client's replies from
// every connection, so that a worker seldom waits on the application.
const (
	fanInBurst = 8
	fanInQueue = 1024
)

// FanIn is the receive half of a connection made of several: one worker
// per connection takes its messages a burst at a time onto one queue,
// and a receive takes them off in the order they arrived. Its address
// is its first connection's. The connection built on it supplies the
// send half.
type FanIn struct {
	conns   []Conn
	in      chan *wire.Buf
	ctx     context.Context
	stop    context.CancelFunc
	workers sync.WaitGroup
	once    sync.Once
}

// NewFanIn starts one worker per connection of conns, which the FanIn
// owns from then on; Close joins the workers.
func NewFanIn(conns []Conn) *FanIn {
	f := &FanIn{conns: conns, in: make(chan *wire.Buf, fanInQueue)}
	f.ctx, f.stop = context.WithCancel(context.Background())
	for _, c := range conns {
		f.workers.Add(1)
		go f.work(c)
	}
	return f
}

// work forwards c's messages a receive burst at a time: a peer answers a
// pipelining client's requests together, and they are taken off the
// socket together.
func (f *FanIn) work(c Conn) {
	defer f.workers.Done()
	var burst [fanInBurst]*wire.Buf
	for {
		n, err := RecvBufs(f.ctx, c, burst[:])
		if err != nil {
			return
		}
		for i, m := range burst[:n] {
			select {
			case f.in <- m:
				burst[i] = nil
			case <-f.ctx.Done():
				ReleaseAll(burst[i:n])
				return
			}
		}
	}
}

func (f *FanIn) Recv(ctx context.Context) ([]byte, error) {
	b, err := f.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

// RecvBuf takes the next message. One already queued is taken before
// ctx's Done channel is asked for: a context makes it on first request.
func (f *FanIn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	select {
	case m := <-f.in:
		return m, nil
	default:
	}
	select {
	case m := <-f.in:
		return m, nil
	case <-f.ctx.Done():
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// RecvBufs blocks for the first message, then takes whatever the
// workers have already queued.
func (f *FanIn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	b, err := f.RecvBuf(ctx)
	if err != nil {
		return 0, err
	}
	into[0] = b
	n := 1
	for n < len(into) {
		select {
		case m := <-f.in:
			into[n] = m
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

func (f *FanIn) LocalAddr() Addr  { return f.conns[0].LocalAddr() }
func (f *FanIn) RemoteAddr() Addr { return f.conns[0].RemoteAddr() }

// Close closes every connection, joins the workers, and releases the
// messages they queued that no receive took.
func (f *FanIn) Close() error {
	f.once.Do(func() {
		f.stop()
		for _, c := range f.conns {
			c.Close()
		}
		f.workers.Wait()
		for {
			select {
			case m := <-f.in:
				m.Release()
			default:
				return
			}
		}
	})
	return nil
}

// Captive is the connection a server-side implementation hands the
// application when it takes the connection's traffic elsewhere itself (a
// proxy, a steering program, a group's ingest service): the application
// holds it, may send on it, and closes it, but receives nothing from it.
type Captive struct {
	conn    Conn
	owned   []Conn
	ctx     context.Context
	stop    context.CancelFunc
	workers sync.WaitGroup
	once    sync.Once
}

// NewCaptive returns the captive view of conn, which owns conn and the
// connections of owned.
func NewCaptive(conn Conn, owned ...Conn) *Captive {
	c := &Captive{conn: conn, owned: owned}
	c.ctx, c.stop = context.WithCancel(context.Background())
	return c
}

// Go runs f on a goroutine of the captive's. f's ctx ends when the
// captive closes, and Close waits for f to return.
func (c *Captive) Go(f func(ctx context.Context)) {
	c.workers.Add(1)
	go func() {
		defer c.workers.Done()
		f(c.ctx)
	}()
}

func (c *Captive) Send(ctx context.Context, p []byte) error { return c.conn.Send(ctx, p) }

// Recv has nothing to return: it waits until ctx ends or the captive
// closes.
func (c *Captive) Recv(ctx context.Context) ([]byte, error) {
	select {
	case <-c.ctx.Done():
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *Captive) LocalAddr() Addr  { return c.conn.LocalAddr() }
func (c *Captive) RemoteAddr() Addr { return c.conn.RemoteAddr() }

// Close stops and joins the captive's goroutines, then closes what it
// owns and its connection.
func (c *Captive) Close() error {
	c.once.Do(func() {
		c.stop()
		c.workers.Wait()
		for _, o := range c.owned {
			o.Close()
		}
		c.conn.Close()
	})
	return nil
}

// DialAll dials every address of addrs with env's dialer. On a failure
// it closes the connections it opened.
func DialAll(ctx context.Context, env *Env, addrs []Addr) ([]Conn, error) {
	d := env.Dialer()
	if d == nil {
		return nil, fmt.Errorf("no dialer in environment")
	}
	conns := make([]Conn, len(addrs))
	for i, a := range addrs {
		c, err := d.Dial(ctx, a)
		if err != nil {
			for _, open := range conns[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("dial %d (%s): %w", i, a, err)
		}
		conns[i] = c
	}
	return conns, nil
}

// Relay sends every message that from receives on to, until a receive
// or a send fails.
func Relay(ctx context.Context, from, to Conn) {
	for {
		m, err := from.Recv(ctx)
		if err != nil || to.Send(ctx, m) != nil {
			return
		}
	}
}
