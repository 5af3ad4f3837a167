package shard

import (
	"context"
	"fmt"
	"sync"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
	"github.com/bertha-net/bertha/internal/xdp"
)

// XDPImpl is the accelerated server-side steering implementation: the
// simulated XDP program runs in each connection's receive path and
// redirects requests straight into the application's per-shard queues —
// no extra network hop, no re-serialization, no shared steering worker.
// The analog of the paper's 200-line XDP program.
type XDPImpl struct {
	base.Impl

	mu   sync.Mutex
	hook *xdp.Hook
	refs int
}

func newXDPImpl() *XDPImpl {
	x := &XDPImpl{hook: xdp.NewHook("xdp:rx")}
	x.hook.RegisterTelemetry(telemetry.Default())
	x.ImplInfo = core.ImplInfo{
		Name:     ImplXDP,
		Type:     Type,
		Scope:    spec.ScopeHost,
		Endpoint: spec.EndpointServer,
		Priority: 20, // kernel datapath beats userspace variants
		Location: core.LocKernel,
	}
	x.InitFn = x.init
	x.TeardownFn = x.teardown
	x.WrapFn = x.wrap
	x.ValidateFn = validateArgs
	return x
}

// Hook exposes the attach point (for statistics in experiments).
func (x *XDPImpl) Hook() *xdp.Hook { return x.hook }

// init attaches the steering program (refcounted across connections) and
// records the configuration action — the automation of what a system
// administrator would do by hand today (Figure 1).
func (x *XDPImpl) init(ctx context.Context, env *core.Env, args []wire.Value) error {
	_, fh, err := decodeArgs(args)
	if err != nil {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.refs == 0 {
		prog := xdp.SteerProgram("shard-steer", fh)
		if err := x.hook.Attach(prog); err != nil {
			return err
		}
		env.Configure(x.hook.Name, "attach-program", prog.Name)
	}
	x.refs++
	return nil
}

func (x *XDPImpl) teardown(ctx context.Context, env *core.Env) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.refs == 0 {
		return nil
	}
	x.refs--
	if x.refs == 0 {
		if err := x.hook.Detach(); err != nil {
			return err
		}
		env.Configure(x.hook.Name, "detach-program", "shard-steer")
	}
	return nil
}

func (x *XDPImpl) wrap(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	addrs, _, err := decodeArgs(args)
	if err != nil {
		return nil, err
	}
	qv, ok := env.Lookup(EnvQueues)
	if !ok {
		return nil, fmt.Errorf("shard: server application did not provide %s", EnvQueues)
	}
	queues, ok := qv.([]chan Steered)
	if !ok {
		return nil, fmt.Errorf("shard: %s is %T, want []chan Steered", EnvQueues, qv)
	}
	if len(queues) != len(addrs) {
		return nil, fmt.Errorf("shard: %d queues for %d shards", len(queues), len(addrs))
	}

	sc := &steeredConn{conn: conn, headroom: core.HeadroomOf(conn)}
	c := core.NewCaptive(conn)
	c.Go(func(ctx context.Context) {
		x.pump(ctx, sc, queues)
		// Replies are taken until the connection closes, and the parked
		// ones released then.
		<-ctx.Done()
		sc.close()
	})
	return c, nil
}

// pump is the simulated NIC->XDP path of one connection: it takes the
// connection's requests a burst at a time, runs the steering program
// over the burst, and puts every redirected request on its shard's queue
// with a reply capability bound to this client's connection.
func (x *XDPImpl) pump(ctx context.Context, sc *steeredConn, queues []chan Steered) {
	var (
		bufs     [xdp.MaxBurst]*wire.Buf
		pkts     [xdp.MaxBurst]xdp.Packet
		verdicts [xdp.MaxBurst]xdp.Verdict
	)
	reply := sc.reply // one func value for every request, not one each
	for {
		n, err := core.RecvBufs(ctx, sc.conn, bufs[:])
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			// The queues' consumers get plain slices with no pool
			// obligations.
			pkts[i] = xdp.Packet{Data: bufs[i].CopyOut()}
			bufs[i] = nil
		}
		x.hook.RunBurst(pkts[:n], verdicts[:n])
		steered := 0
		for i := 0; i < n; i++ {
			q := pkts[i].RedirectQueue()
			if verdicts[i] == xdp.Redirect && q >= 0 && q < len(queues) {
				steered++
			} else if verdicts[i] == xdp.Redirect {
				verdicts[i] = xdp.Drop
			}
		}
		// The whole burst counts as outstanding before its first request
		// can be answered, so the answers to it leave together.
		sc.expect(steered)
		for i := 0; i < n; i++ {
			switch verdicts[i] {
			case xdp.Redirect:
				select {
				case queues[pkts[i].RedirectQueue()] <- Steered{Payload: pkts[i].Data, Reply: reply}:
				case <-ctx.Done():
					return
				}
			case xdp.Tx:
				_ = sc.conn.Send(ctx, pkts[i].Data)
			default:
				// Pass means the steering program is absent (detached):
				// drop, like the rest, to preserve at-most-once semantics
				// rather than misroute.
			}
			pkts[i].Data = nil
		}
	}
}

// replyBurstCap is the most replies a steered connection parks before it
// sends them whatever is still outstanding.
const replyBurstCap = 64

// steeredConn is the reply side of one steered connection. The shard
// workers answer a connection's requests one Reply call at a time, from
// several goroutines; sending each answer by itself costs a system call
// per request. Instead a reply is parked, and the parked replies go out
// with one SendBufs when the last request the pump has handed to the
// queues is answered — so a request that arrives alone is answered at
// once, a pipelined burst is answered as a burst, and nothing waits on a
// timer. What a parked reply waits for is bounded by the service time of
// the connection's other outstanding requests, and by replyBurstCap.
type steeredConn struct {
	conn     core.Conn
	headroom int

	mu          sync.Mutex
	outstanding int         // requests on the queues whose Reply has not run
	parked      []*wire.Buf // replies waiting for the flush
	spare       []*wire.Buf // parked's other backing array, between flushes
	closed      bool
}

// expect counts n more steered requests as outstanding.
func (c *steeredConn) expect(n int) {
	c.mu.Lock()
	c.outstanding += n
	c.mu.Unlock()
}

// reply is every Steered.Reply of the connection.
func (c *steeredConn) reply(ctx context.Context, p []byte) error {
	b := wire.NewBufFrom(c.headroom, p)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		b.Release()
		return core.ErrClosed
	}
	c.parked = append(c.parked, b)
	if c.outstanding > 0 {
		c.outstanding--
	}
	if c.outstanding > 0 && len(c.parked) < replyBurstCap {
		c.mu.Unlock()
		return nil
	}
	burst := c.parked
	c.parked, c.spare = c.spare[:0], nil
	c.mu.Unlock()

	err := core.SendBufs(ctx, c.conn, burst)
	clear(burst)
	c.mu.Lock()
	if c.spare == nil {
		c.spare = burst
	}
	c.mu.Unlock()
	if be, ok := err.(*core.BatchError); ok {
		return be.Err
	}
	return err
}

// close releases the parked replies; later ones are refused.
func (c *steeredConn) close() {
	c.mu.Lock()
	c.closed = true
	for _, b := range c.parked {
		b.Release()
	}
	c.parked = nil
	c.mu.Unlock()
}
