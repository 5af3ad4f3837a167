package core

import (
	"context"
	"fmt"
	"sync"
)

// ConnectMulti establishes one logical connection to several peer
// endpoints at once — Listing 2: "since one end of this connection
// involves multiple endpoints, the argument passed into connect is a
// vector containing endpoint addresses... initial discovery and
// negotiation involves all endpoints."
//
// Negotiation runs with every peer; all peers must resolve the DAG to
// the same implementation bindings (the compatibility check of §4.3
// extended to groups). Chunnels implementing MultiWrapper (ordered
// multicast) receive all per-peer connections at once; other chunnels
// wrap each per-peer connection independently. If no chunnel collapses
// the group, the result is a fan-out connection: Send reaches every
// peer, Recv returns whichever peer's message arrives next.
func (e *Endpoint) ConnectMulti(ctx context.Context, raws []Conn) (Conn, error) {
	if len(raws) == 0 {
		return nil, fmt.Errorf("%w: no endpoints", ErrNegotiation)
	}
	if len(raws) == 1 {
		return e.Connect(ctx, raws[0])
	}

	type result struct {
		idx  int
		conn Conn
		sh   *ServerHello
		err  error
	}
	snap := e.registry.snapshot()
	results := make(chan result, len(raws))
	tagged := make([]*taggedConn, len(raws))
	for i, raw := range raws {
		tagged[i] = newTaggedConn(raw)
		go func(i int) {
			hello := &ClientHello{
				Nonce:      newNonce(),
				Name:       e.name,
				Host:       hostOr(e.env.Host, raws[i].LocalAddr().Host),
				Spec:       e.stack,
				Offers:     snap.offers,
				offerBlock: snap.block,
			}
			sh, err := awaitServerHello(ctx, tagged[i], encodeHello(hello), hello.Nonce)
			if err == nil && sh.Err != "" {
				err = fmt.Errorf("%w: peer %d: %s", ErrNegotiation, i, sh.Err)
			}
			results <- result{idx: i, sh: sh, err: err}
		}(i)
	}

	hellos := make([]*ServerHello, len(raws))
	var firstErr error
	for range raws {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		hellos[r.idx] = r.sh
	}
	if firstErr != nil {
		for _, raw := range raws {
			raw.Close()
		}
		return nil, firstErr
	}

	// Group compatibility: every peer must have bound the same stack.
	ref := hellos[0].Stack
	for i, sh := range hellos[1:] {
		if !sameBindings(ref, sh.Stack) {
			for _, raw := range raws {
				raw.Close()
			}
			return nil, fmt.Errorf("%w: peer %d bound a different stack", ErrIncompatibleSpecs, i+1)
		}
	}

	return e.assembleMulti(ctx, tagged, snap, hellos)
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

// assembleMulti builds the client-side stack over the group: multi-aware
// chunnels collapse the per-peer connections; others wrap per peer.
func (e *Endpoint) assembleMulti(ctx context.Context, tagged []*taggedConn, snap *regSnapshot, hellos []*ServerHello) (Conn, error) {
	conns := make([]Conn, len(tagged))
	for i, tc := range tagged {
		// Per-peer base connections share one "transport" metrics entry
		// per network kind; group data-plane totals aggregate there.
		conns[i] = Instrument(tc.dataConn(), e.tel.Conn("transport", tc.raw.LocalAddr().Net))
	}
	stack := hellos[0].Stack
	var active []activeImpl

	fail := func(err error) (Conn, error) {
		teardownAll(ctx, active, e)
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}

	for i := len(stack) - 1; i >= 0; i-- {
		rn := stack[i]
		if !rn.RunsAt(SideClient) {
			continue
		}
		impl, ok := snap.byName[rn.ImplName]
		if !ok {
			return fail(fmt.Errorf("%w: %q not in local registry", ErrNoImplementation, rn.ImplName))
		}
		// Use the first peer's params that are non-empty (peers may
		// contribute identical params; the group sequencer address comes
		// from any one of them).
		params := rn.Params
		for _, sh := range hellos {
			if len(sh.Stack) > i && len(sh.Stack[i].Params) > 0 {
				params = sh.Stack[i].Params
				break
			}
		}
		if err := impl.Init(ctx, e.env, rn.Args); err != nil {
			return fail(fmt.Errorf("bertha: init %q: %w", rn.ImplName, err))
		}
		m := e.tel.Conn(rn.Type, rn.ImplName)
		if mw, ok := impl.(MultiWrapper); ok && len(conns) > 1 {
			merged, err := mw.WrapMulti(ctx, conns, rn.Args, params, SideClient, e.env)
			if err != nil {
				impl.Teardown(ctx, e.env)
				return fail(fmt.Errorf("bertha: wrap-multi %q: %w", rn.ImplName, err))
			}
			conns = []Conn{Instrument(merged, m)}
		} else {
			for ci, c := range conns {
				wrapped, err := impl.Wrap(ctx, c, rn.Args, params, SideClient, e.env)
				if err != nil {
					impl.Teardown(ctx, e.env)
					return fail(fmt.Errorf("bertha: wrap %q (peer %d): %w", rn.ImplName, ci, err))
				}
				conns[ci] = Instrument(wrapped, m)
			}
		}
		active = append(active, activeImpl{impl: impl, claim: rn.ClaimID})
	}

	var out Conn
	if len(conns) == 1 {
		out = conns[0]
	} else {
		out = newFanConn(conns)
	}
	if e.coalesce != nil {
		out = NewCoalescer(out, *e.coalesce, e.tel)
	}
	return &managedConn{Datapath: Resolve(out), ep: e, side: SideClient, active: active}, nil
}

// fanConn is the default group connection when no chunnel collapses the
// peers: Send fans out to every peer, Recv returns the next message from
// any peer.
type fanConn struct {
	conns []Conn
	in    chan []byte
	ctx   context.Context
	stop  context.CancelFunc
	once  sync.Once
}

func newFanConn(conns []Conn) *fanConn {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fanConn{conns: conns, in: make(chan []byte, 256), ctx: ctx, stop: cancel}
	for _, c := range conns {
		go func(c Conn) {
			for {
				m, err := c.Recv(f.ctx)
				if err != nil {
					return
				}
				select {
				case f.in <- m:
				case <-f.ctx.Done():
					return
				}
			}
		}(c)
	}
	return f
}

func (f *fanConn) Send(ctx context.Context, p []byte) error {
	var firstErr error
	for _, c := range f.conns {
		if err := c.Send(ctx, p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (f *fanConn) Recv(ctx context.Context) ([]byte, error) {
	select {
	case m := <-f.in:
		return m, nil
	case <-f.ctx.Done():
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (f *fanConn) LocalAddr() Addr  { return f.conns[0].LocalAddr() }
func (f *fanConn) RemoteAddr() Addr { return f.conns[0].RemoteAddr() }

func (f *fanConn) Close() error {
	f.once.Do(func() {
		f.stop()
		for _, c := range f.conns {
			c.Close()
		}
	})
	return nil
}
