// Package localfast implements the container fast-path of Listing 1: a
// local_or_remote select node whose IPC branch moves the connection onto
// an efficient same-host transport (UNIX datagram sockets or in-process
// pipes) when both endpoints share a host, and whose network branch
// leaves the connection on the normal datagram path otherwise.
//
// Mechanically (matching the paper's prototype): negotiation resolves
// the select using host identities; when the IPC branch is chosen, the
// server's ipc implementation publishes a fresh connection token and its
// IPC listener address as negotiation parameters, the client dials that
// address, presents the token, and both sides splice the connection onto
// the IPC transport. The original network connection is retained only
// for teardown.
package localfast

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// Chunnel type names.
const (
	// SelectType is the select-node combinator (local_or_remote()).
	SelectType = "local_or_remote"
	// IPCType is the same-host splice chunnel.
	IPCType = "ipc"
	// PassType is the no-op network branch.
	PassType = "passthrough"
)

// EnvListener is the Env key under which the server application provides
// its IPC listener (a core.Listener on a "unix" or "pipe" transport).
const EnvListener = "localfast:listener"

// spliceTimeout bounds how long the server waits for the client's IPC
// dial after negotiation chose the IPC branch.
const spliceTimeout = 5 * time.Second

// Node builds the Listing 1 DAG node:
//
//	wrap!(local_or_remote())
//
// expands to a select between the IPC splice and a passthrough.
func Node() spec.Node {
	return spec.Select(SelectType, nil,
		spec.Seq(spec.New(IPCType).WithScope(spec.ScopeHost)),
		spec.Seq(spec.New(PassType)),
	)
}

// Register installs the select resolver and both branch implementations.
func Register(reg *core.Registry) {
	reg.RegisterResolver(SelectType, func(args []wire.Value, branches []*spec.Stack, sctx core.SelectContext) (int, error) {
		if sctx.ClientHost != "" && sctx.ClientHost == sctx.ServerHost && sctx.Available(IPCType) {
			return 0, nil
		}
		return 1, nil
	})
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     PassType + "/nop",
			Type:     PassType,
			Endpoint: spec.EndpointBoth,
			Location: core.LocUserspace,
		},
	})
	reg.MustRegister(newIPCImpl())
}

// ipcImpl is the EndpointBoth splice implementation.
type ipcImpl struct {
	base.Impl

	mu      sync.Mutex
	waiting map[string]chan core.Conn // token -> arrival channel
	started bool
	cancel  context.CancelFunc
}

func newIPCImpl() *ipcImpl {
	impl := &ipcImpl{waiting: map[string]chan core.Conn{}}
	impl.ImplInfo = core.ImplInfo{
		Name:     IPCType + "/splice",
		Type:     IPCType,
		Scope:    spec.ScopeHost,
		Endpoint: spec.EndpointBoth,
		Priority: 10, // IPC beats the network path when feasible
		Location: core.LocUserspace,
	}
	impl.ParamsFn = impl.negotiateParams
	impl.WrapFn = impl.wrap
	impl.InitFn = impl.init
	impl.TeardownFn = impl.teardown
	return impl
}

// init starts the server-side accept loop over the application-provided
// IPC listener (idempotent across connections).
func (i *ipcImpl) init(ctx context.Context, env *core.Env, args []wire.Value) error {
	v, ok := env.Lookup(EnvListener)
	if !ok {
		return nil // client side, or server without an IPC listener
	}
	l, ok := v.(core.Listener)
	if !ok {
		return fmt.Errorf("localfast: %s is %T, want core.Listener", EnvListener, v)
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.started {
		return nil
	}
	i.started = true
	loopCtx, cancel := context.WithCancel(context.Background())
	i.cancel = cancel
	env.Configure("host", "ipc-listen", l.Addr().String())
	go i.acceptLoop(loopCtx, l)
	return nil
}

func (i *ipcImpl) teardown(ctx context.Context, env *core.Env) error {
	// The accept loop is shared across connections; it stops when the
	// endpoint's environment is discarded. Nothing per-connection here.
	return nil
}

// acceptLoop matches arriving IPC connections (which lead with a token)
// to the negotiation that issued the token. A datagram listener hands
// over a connection once its first datagram, the token, has arrived, so
// the loop polls for it and matches it in place; only a connection whose
// token is not there yet gets a goroutine to wait for it.
func (i *ipcImpl) acceptLoop(ctx context.Context, l core.Listener) {
	for {
		conn, err := l.Accept(ctx)
		if err != nil {
			return
		}
		if tok, err := conn.Recv(core.Polled); err == nil {
			i.splice(conn, tok)
			continue
		}
		go func(conn core.Conn) {
			tctx, cancel := context.WithTimeout(ctx, spliceTimeout)
			defer cancel()
			tok, err := conn.Recv(tctx)
			if err != nil {
				conn.Close()
				return
			}
			i.splice(conn, tok)
		}(conn)
	}
}

// splice hands an IPC connection that presented tok to the negotiation
// that issued tok. The entry stays until that negotiation has looked it
// up (wrap removes it): a fast client gets here before the server's own
// wrap does.
func (i *ipcImpl) splice(conn core.Conn, tok []byte) {
	i.mu.Lock()
	ch, ok := i.waiting[string(tok)]
	i.mu.Unlock()
	if !ok {
		conn.Close() // unknown token
		return
	}
	select {
	case ch <- conn:
	default:
		conn.Close() // the token was presented twice
	}
}

// negotiateParams publishes [ipcAddr, token] for one connection.
func (i *ipcImpl) negotiateParams(ctx context.Context, env *core.Env, args []wire.Value) ([]wire.Value, error) {
	v, ok := env.Lookup(EnvListener)
	if !ok {
		return nil, fmt.Errorf("localfast: server has no %s attachment", EnvListener)
	}
	l, ok := v.(core.Listener)
	if !ok {
		return nil, fmt.Errorf("localfast: %s is %T, want core.Listener", EnvListener, v)
	}
	var raw [12]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, err
	}
	token := hex.EncodeToString(raw[:])
	i.mu.Lock()
	i.waiting[token] = make(chan core.Conn, 1)
	i.mu.Unlock()
	return []wire.Value{base.EncodeAddr(l.Addr()), wire.Str(token)}, nil
}

// wrap splices both ends onto the IPC transport.
func (i *ipcImpl) wrap(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	if len(params) < 2 {
		return nil, fmt.Errorf("localfast: missing negotiation params")
	}
	addr, err := base.DecodeAddr(params[0])
	if err != nil {
		return nil, fmt.Errorf("localfast: %w", err)
	}
	token, ok := params[1].AsString()
	if !ok {
		return nil, fmt.Errorf("localfast: bad token param")
	}

	switch side {
	case core.SideClient:
		d := env.Dialer()
		if d == nil {
			return nil, fmt.Errorf("localfast: no dialer in environment")
		}
		ipc, err := d.Dial(ctx, addr)
		if err != nil {
			return nil, fmt.Errorf("localfast: dial %s: %w", addr, err)
		}
		if err := ipc.Send(ctx, []byte(token)); err != nil {
			ipc.Close()
			return nil, fmt.Errorf("localfast: token: %w", err)
		}
		return newSpliced(ipc, conn), nil

	default: // server
		i.mu.Lock()
		ch, ok := i.waiting[token]
		i.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("localfast: unknown token %q", token)
		}
		defer func() {
			i.mu.Lock()
			delete(i.waiting, token)
			i.mu.Unlock()
		}()
		// Drain the original (network) connection while waiting and for
		// the connection's lifetime: all data moves to the IPC path, so
		// the only traffic here is retransmitted handshakes over a lossy
		// network — which the tagged layer re-answers during Recv — and
		// the client's close notice, which frees the peer's entry.
		spliced := &splicedConn{orig: conn, server: true}
		spliced.startDrain()
		// The wait's timer is stopped on the way out: under the module's
		// go 1.22 timer semantics a time.After would stay in the runtime's
		// timer heap for the full 5 s after the dial arrived, one per
		// lifecycle, and every heap pass would walk them all.
		wait := time.NewTimer(spliceTimeout)
		defer wait.Stop()
		select {
		case ipc := <-ch:
			spliced.Datapath = core.Resolve(ipc)
			return spliced, nil
		case <-wait.C:
			spliced.Close()
			return nil, fmt.Errorf("localfast: client never dialed the IPC path")
		case <-ctx.Done():
			spliced.Close()
			return nil, ctx.Err()
		}
	}
}

// splicedConn carries data on the IPC transport — every datapath method
// is the IPC connection's own — while keeping the original network
// connection open for handshake retransmissions and close propagation.
//
// Only the server drains the network leg. It answers late hellos while
// it waits for the client's IPC dial, and it takes the close notice the
// client sends on that leg when it closes, which frees the server's
// per-peer entry. After the ServerHello the client has nothing to wait
// for there, so its spliced connection starts no goroutine; its Close
// reads what has arrived meanwhile before it sends its own notice.
type splicedConn struct {
	core.Datapath
	orig   core.Conn
	server bool
	once   sync.Once
	// drain is the server's drain goroutine, joined by Close.
	drain sync.WaitGroup
}

func newSpliced(ipc, orig core.Conn) *splicedConn {
	return &splicedConn{Datapath: core.Resolve(ipc), orig: orig}
}

// startDrain reads the network leg until it closes: Close closing it
// is what ends the drain, which therefore needs no context of its own.
func (s *splicedConn) startDrain() {
	s.drain.Add(1)
	go s.drainOrig()
}

func (s *splicedConn) drainOrig() {
	defer s.drain.Done()
	unbounded := context.Background() // Close ends the drain (startDrain)
	s.recvOrig(unbounded)
}

// recvOrig reads the network leg until a receive under ctx fails. The
// tagged layer handles what arrives there as it is read: it answers a
// retransmitted hello and marks the leg closed on the peer's notice.
func (s *splicedConn) recvOrig(ctx context.Context) {
	rc := core.Resolve(s.orig)
	for {
		b, err := rc.RecvBuf(ctx)
		if err != nil {
			return
		}
		b.Release()
	}
}

// Close closes the IPC connection and the network leg — sending the
// close notice there — and joins the drain, if any. The client first
// takes, without waiting, what reached its network leg: a server that
// closed first sent its notice there, and once the client has read it
// the client sends none. Its notice would reach a server that has
// already freed the peer, and be taken for a new connection's first
// datagram.
func (s *splicedConn) Close() error {
	var err error
	if s.Datapath != nil {
		err = s.Datapath.Close()
	}
	s.once.Do(func() {
		if !s.server {
			s.recvOrig(core.Polled)
		}
		s.orig.Close()
		s.drain.Wait()
	})
	return err
}
