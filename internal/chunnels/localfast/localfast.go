// Package localfast implements the container fast-path of Listing 1: a
// local_or_remote select node whose IPC branch moves the connection onto
// an efficient same-host transport (UNIX datagram sockets or in-process
// pipes) when both endpoints share a host, and whose network branch
// leaves the connection on the normal datagram path otherwise.
//
// Mechanically: negotiation resolves the select using host identities;
// when the IPC branch is chosen, the server's ipc implementation
// publishes its IPC listener's address as the node's one negotiation
// parameter. The splice implementation is a core.Resumer, so the
// network leg ends with the ServerHello, whose ticket the client
// presents on a fresh dial of that address (core's resume.go, the
// splice rendezvous); a single-use ticket resumes the client's later
// connections to that server without a hello, on the socket the client
// kept from its previous connection. The IPC accept loop hands every
// connection, with its first message, to the server endpoint's
// core.EnvResume sink.
package localfast

import (
	"context"
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

// firstMessageTimeout bounds the wait for an IPC connection's first
// message, the resume request: one hello attempt, as core waits for the
// answer.
const firstMessageTimeout = 250 * time.Millisecond

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

// ipcImpl is the EndpointBoth splice implementation. It wraps nothing:
// as the innermost node it is a core.Resumer, whose connections core
// establishes on the IPC path itself.
type ipcImpl struct {
	base.Impl

	mu      sync.Mutex
	started bool // the accept loop runs
}

func newIPCImpl() *ipcImpl {
	impl := &ipcImpl{}
	impl.ImplInfo = core.ImplInfo{
		Name:     IPCType + "/splice",
		Type:     IPCType,
		Scope:    spec.ScopeHost,
		Endpoint: spec.EndpointBoth,
		Priority: 10, // IPC beats the network path when feasible
		Location: core.LocUserspace,
	}
	impl.ParamsFn = impl.negotiateParams
	return impl
}

// negotiateParams publishes [ipcAddr], the address of the IPC listener
// the server application provided, and starts the accept loop over that
// listener the first time (it is shared by every connection, and ends
// when the listener closes).
func (i *ipcImpl) negotiateParams(ctx context.Context, env *core.Env, args []wire.Value) ([]wire.Value, error) {
	v, ok := env.Lookup(EnvListener)
	if !ok {
		return nil, fmt.Errorf("localfast: server has no %s attachment", EnvListener)
	}
	l, ok := v.(core.Listener)
	if !ok {
		return nil, fmt.Errorf("localfast: %s is %T, want core.Listener", EnvListener, v)
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.started {
		i.started = true
		env.Configure("host", "ipc-listen", l.Addr().String())
		go acceptLoop(l, env)
	}
	return []wire.Value{base.EncodeAddr(l.Addr())}, nil
}

// acceptLoop hands each arriving IPC connection, with its first
// message, to the endpoint's resume sink. A datagram listener hands over
// a connection once its first datagram has arrived, so the loop polls
// for it and dispatches it in place; only a connection whose first
// message is not there yet gets a goroutine to wait for it, at most one
// hello attempt.
func acceptLoop(l core.Listener, env *core.Env) {
	ctx := context.Background() // the listener's Close ends the loop
	for {
		conn, err := l.Accept(ctx)
		if err != nil {
			return
		}
		if first, err := conn.Recv(core.Polled); err == nil {
			dispatch(conn, first, env)
			continue
		}
		go func(conn core.Conn) {
			tctx, cancel := context.WithTimeout(ctx, firstMessageTimeout)
			defer cancel()
			first, err := conn.Recv(tctx)
			if err != nil {
				conn.Close()
				return
			}
			dispatch(conn, first, env)
		}(conn)
	}
}

// dispatch hands an IPC connection to the endpoint's resume sink.
func dispatch(conn core.Conn, first []byte, env *core.Env) {
	v, _ := env.Lookup(core.EnvResume)
	if sink, ok := v.(core.ResumeSink); ok {
		sink(conn, first)
		return
	}
	conn.Close() // nothing listens for resumes
}

// ResumeDial implements core.Resumer: a spliced connection, and a
// resumed one whose client kept no socket, runs on a fresh dial of the
// IPC address the server published, params[0].
func (i *ipcImpl) ResumeDial(ctx context.Context, params []wire.Value, env *core.Env) (core.Conn, error) {
	if len(params) < 1 {
		return nil, fmt.Errorf("localfast: missing negotiation params")
	}
	addr, err := base.DecodeAddr(params[0])
	if err != nil {
		return nil, fmt.Errorf("localfast: %w", err)
	}
	d := env.Dialer()
	if d == nil {
		return nil, fmt.Errorf("localfast: no dialer in environment")
	}
	ipc, err := d.Dial(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("localfast: dial %s: %w", addr, err)
	}
	return ipc, nil
}
