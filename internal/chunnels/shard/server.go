package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// SteeredCounter is the telemetry counter name for requests forwarded by
// the userspace steering worker. Compare against the XDP hook's
// redirect probe to see which steering path a deployment actually took.
const SteeredCounter = "chunnel/shard/steered"

// serverImpl is the userspace fallback: all clients' requests funnel
// through one steering worker that forwards each request over the
// network to its shard and relays the reply — correct, but the worker
// and the extra hop make it the slowest option (§5 "Server Fallback").
type serverImpl struct {
	base.Impl

	mu      sync.Mutex
	steerCh chan steerItem
	started bool
}

type steerItem struct {
	payload []byte
	fwd     core.Conn
}

func newServerImpl() *serverImpl {
	s := &serverImpl{steerCh: make(chan steerItem, 4096)}
	s.ImplInfo = core.ImplInfo{
		Name:     ImplServer,
		Type:     Type,
		Endpoint: spec.EndpointServer,
		Priority: 0,
		Location: core.LocUserspace,
	}
	s.WrapFn = s.wrap
	s.ValidateFn = validateArgs
	return s
}

// steerSendTimeout bounds each forwarded request: the steering worker
// is shared by every client, so one stuck shard connection must not
// stall the whole queue.
const steerSendTimeout = 5 * time.Second

// steerWorker is the single shared steering thread.
func (s *serverImpl) steerWorker() {
	steered := telemetry.Default().Counter(SteeredCounter)
	for item := range s.steerCh {
		// A userspace balancer copies the request and re-sends it
		// through the network stack.
		buf := make([]byte, len(item.payload))
		copy(buf, item.payload)
		ctx, cancel := context.WithTimeout(context.Background(), steerSendTimeout)
		_ = item.fwd.Send(ctx, buf)
		cancel()
		steered.Inc()
	}
}

func (s *serverImpl) wrap(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	addrs, fh, err := decodeArgs(args)
	if err != nil {
		return nil, err
	}
	// One forwarding connection per (client, shard) so replies route
	// back to the right client without protocol changes.
	fwd, err := core.DialAll(ctx, env, addrs)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	s.mu.Lock()
	if !s.started {
		s.started = true
		go s.steerWorker()
	}
	s.mu.Unlock()

	c := core.NewCaptive(conn, fwd...)
	// Reply pumps: shard worker responses relay back to the client.
	for _, f := range fwd {
		c.Go(func(ctx context.Context) { core.Relay(ctx, f, conn) })
	}
	// Ingress pump: client requests go to the shared steering worker.
	c.Go(func(ctx context.Context) {
		for {
			m, err := conn.Recv(ctx)
			if err != nil {
				return
			}
			select {
			case s.steerCh <- steerItem{payload: m, fwd: fwd[fh.Apply(m)]}:
			case <-ctx.Done():
				return
			}
		}
	})
	return c, nil
}
