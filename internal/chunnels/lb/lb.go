// Package lb implements the load-balancing chunnel of §3.2: a service
// behind one logical address whose requests are spread across backends.
// Two implementations capture the two modalities the paper contrasts:
//
//   - lb/client: client-side balancing — the client dials the backends
//     and spreads requests itself (scales, but complicates resharding).
//   - lb/server: an application load balancer at the server — all
//     requests funnel through one proxy (simple, but a bottleneck).
//
// Because the implementation binds per connection, a deployment can run
// both at once ("hybrid load balancing"), which is exactly the case
// current interfaces make hard to deploy.
package lb

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name.
const Type = "lb"

// Implementation names.
const (
	ImplClient = Type + "/client"
	ImplServer = Type + "/server"
)

// Node builds the DAG node: lb(backends).
func Node(backends []core.Addr) spec.Node {
	return spec.New(Type, base.EncodeAddrs(backends))
}

func decodeBackends(args []wire.Value) ([]core.Addr, error) {
	addrs, err := base.AddrList(Type, args, 0)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("lb: empty backend list")
	}
	return addrs, nil
}

// RegisterClient installs the client-side balancing implementation.
func RegisterClient(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     ImplClient,
			Type:     Type,
			Endpoint: spec.EndpointClient,
			Priority: 10,
			Location: core.LocUserspace,
		},
		WrapFn: wrapClient,
		ValidateFn: func(args []wire.Value) error {
			_, err := decodeBackends(args)
			return err
		},
	})
}

// RegisterServer installs the server-side proxy implementation.
func RegisterServer(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     ImplServer,
			Type:     Type,
			Endpoint: spec.EndpointServer,
			Priority: 0,
			Location: core.LocUserspace,
		},
		WrapFn: wrapServer,
		ValidateFn: func(args []wire.Value) error {
			_, err := decodeBackends(args)
			return err
		},
	})
}

// wrapClient: the client dials every backend and round-robins requests;
// replies come back on any of them, or on the canonical connection.
func wrapClient(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	backends, err := decodeBackends(args)
	if err != nil {
		return nil, err
	}
	conns, err := core.DialAll(ctx, env, backends)
	if err != nil {
		return nil, fmt.Errorf("lb: %w", err)
	}
	return &balancedConn{FanIn: core.NewFanIn(append([]core.Conn{conn}, conns...)), backends: conns}, nil
}

type balancedConn struct {
	*core.FanIn
	backends []core.Conn
	rr       atomic.Uint64
}

func (b *balancedConn) Send(ctx context.Context, p []byte) error {
	i := int(b.rr.Add(1)-1) % len(b.backends)
	return b.backends[i].Send(ctx, p)
}

// wrapServer: an L7 proxy at the server relays requests round-robin and
// replies back — the single-point application load balancer.
func wrapServer(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	backends, err := decodeBackends(args)
	if err != nil {
		return nil, err
	}
	fwd, err := core.DialAll(ctx, env, backends)
	if err != nil {
		return nil, fmt.Errorf("lb: %w", err)
	}
	c := core.NewCaptive(conn, fwd...)
	for _, f := range fwd {
		c.Go(func(ctx context.Context) { core.Relay(ctx, f, conn) })
	}
	c.Go(func(ctx context.Context) {
		for rr := 0; ; rr++ {
			m, err := conn.Recv(ctx)
			if err != nil {
				return
			}
			_ = fwd[rr%len(fwd)].Send(ctx, m)
		}
	})
	return c, nil
}
