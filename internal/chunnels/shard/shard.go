// Package shard implements the sharding chunnel of Listing 4: a service
// exposes one canonical address, and each request is routed to one of
// several backend shards by a declarative shard function
// (hash(payload[off:off+len]) % nshards — the paper's
// hash(p.payload[10..14]) % 3).
//
// Three implementations are registered, matching the §5 evaluation:
//
//   - shard/client-push (client endpoint, userspace): the client computes
//     the shard locally and sends requests directly to the shard's
//     address, eliminating the server-side steering hop entirely.
//   - shard/xdp (server endpoint, kernel datapath): requests arriving at
//     the canonical address are steered to per-shard queues by a
//     simulated XDP program in the receive path — no re-serialization,
//     no extra network hop, no shared userspace bottleneck.
//   - shard/server (server endpoint, userspace fallback): a single
//     steering worker receives each request, computes the shard, and
//     forwards it over the network to the shard's address; replies are
//     relayed back. Correct everywhere, but the steering worker is the
//     bottleneck — the paper's "Server Fallback" scenario.
//
// The shard function must be declarative (a FieldHash spec) so it can be
// negotiated to clients and offloads; an opaque Go closure could only
// ever run in the server process, which is exactly the hybrid-routing
// ossification the paper argues against.
package shard

import (
	"context"
	"fmt"
	"sync"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
	"github.com/bertha-net/bertha/internal/xdp"
)

// Type is the chunnel type name.
const Type = "shard"

// Implementation names.
const (
	ImplClientPush = Type + "/client-push"
	ImplXDP        = Type + "/xdp"
	ImplServer     = Type + "/server"
)

// EnvQueues is the Env key under which the server application provides
// its per-shard request queues ([]chan Steered) for steered delivery.
const EnvQueues = "shard:queues"

// Steered is one request routed to a shard worker.
type Steered struct {
	// Payload is the raw request; the slice is the receiver's.
	Payload []byte
	// Reply sends a response back to the requesting client; p is
	// borrowed for the call, as in Conn.Send. The worker calls it exactly
	// once for every request it takes: the steering implementation sends
	// a connection's replies together once all of its outstanding
	// requests have been answered.
	Reply func(ctx context.Context, p []byte) error
}

// Node builds the Listing 4 DAG node: shard(choices, fn).
func Node(shards []core.Addr, fh xdp.FieldHash) spec.Node {
	return spec.New(Type, base.EncodeAddrs(shards), encodeFieldHash(fh))
}

func encodeFieldHash(fh xdp.FieldHash) wire.Value {
	return wire.Map(map[string]wire.Value{
		"offset": wire.Int(int64(fh.Offset)),
		"length": wire.Int(int64(fh.Length)),
		"shards": wire.Int(int64(fh.Shards)),
	})
}

func decodeArgs(args []wire.Value) ([]core.Addr, xdp.FieldHash, error) {
	addrs, err := base.AddrList(Type, args, 0)
	if err != nil {
		return nil, xdp.FieldHash{}, err
	}
	if len(args) < 2 {
		return nil, xdp.FieldHash{}, fmt.Errorf("shard: missing shard function argument")
	}
	m, ok := args[1].AsMap()
	if !ok {
		return nil, xdp.FieldHash{}, fmt.Errorf("shard: shard function must be a map, got %s", args[1].Kind())
	}
	geti := func(k string) int {
		v, _ := m[k].AsInt()
		return int(v)
	}
	fh := xdp.FieldHash{Offset: geti("offset"), Length: geti("length"), Shards: geti("shards")}
	if fh.Shards <= 0 {
		fh.Shards = len(addrs)
	}
	if fh.Shards != len(addrs) {
		return nil, xdp.FieldHash{}, fmt.Errorf("shard: %d shards but %d addresses", fh.Shards, len(addrs))
	}
	return addrs, fh, nil
}

// RegisterClient installs the client-push implementation (what Listing
// 5's client links).
func RegisterClient(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     ImplClientPush,
			Type:     Type,
			Endpoint: spec.EndpointClient,
			Priority: 10,
			Location: core.LocUserspace,
		},
		WrapFn:     wrapClientPush,
		ValidateFn: validateArgs,
	})
}

// RegisterServer installs the server fallback implementation.
func RegisterServer(reg *core.Registry) {
	reg.MustRegister(newServerImpl())
}

// RegisterXDP installs the simulated-XDP accelerated implementation.
// The returned impl exposes hook statistics for experiments.
func RegisterXDP(reg *core.Registry) *XDPImpl {
	impl := newXDPImpl()
	reg.MustRegister(impl)
	return impl
}

// validateArgs checks the node arguments during negotiation.
func validateArgs(args []wire.Value) error {
	_, _, err := decodeArgs(args)
	return err
}

// --- client push ---

func wrapClientPush(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	addrs, fh, err := decodeArgs(args)
	if err != nil {
		return nil, err
	}
	d := env.Dialer()
	if d == nil {
		return nil, fmt.Errorf("shard: no dialer in environment")
	}
	conns := make([]core.Conn, len(addrs))
	for i, a := range addrs {
		c, err := d.Dial(ctx, a)
		if err != nil {
			for _, open := range conns[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("shard: dial shard %d (%s): %w", i, a, err)
		}
		conns[i] = c
	}
	return newPushConn(conn, conns, fh), nil
}

// pushConn routes sends to per-shard connections and fans replies in.
type pushConn struct {
	canonical core.Conn
	shards    []core.Conn
	fh        xdp.FieldHash
	in        chan *wire.Buf

	ctx    context.Context
	cancel context.CancelFunc
	fanIns sync.WaitGroup
	once   sync.Once
}

// newPushConn starts one fan-in worker per shard connection; Close joins
// them.
func newPushConn(canonical core.Conn, shards []core.Conn, fh xdp.FieldHash) *pushConn {
	p := &pushConn{
		canonical: canonical,
		shards:    shards,
		fh:        fh,
		in:        make(chan *wire.Buf, 1024),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	for _, c := range shards {
		p.startFanIn(c)
	}
	p.startFanIn(canonical) // canonical address may also carry replies
	return p
}

func (p *pushConn) startFanIn(c core.Conn) {
	p.fanIns.Add(1)
	go func() {
		defer p.fanIns.Done()
		p.fanIn(c)
	}()
}

// fanInBurst is how many replies a fan-in worker takes off its
// connection per receive.
const fanInBurst = 8

// fanIn forwards one connection's replies, a receive burst at a time: a
// shard answers a pipelining client's requests together, and they are
// taken off the socket together.
func (p *pushConn) fanIn(c core.Conn) {
	var burst [fanInBurst]*wire.Buf
	for {
		n, err := core.RecvBufs(p.ctx, c, burst[:])
		if err != nil {
			return
		}
		for i, m := range burst[:n] {
			select {
			case p.in <- m:
				burst[i] = nil
			case <-p.ctx.Done():
				core.ReleaseAll(burst[i:n])
				return
			}
		}
	}
}

func (p *pushConn) Send(ctx context.Context, b []byte) error {
	return p.shards[p.fh.Apply(b)].Send(ctx, b)
}

// SendBuf routes the buffer to its shard's connection — sharding adds no
// header, so this is pure passthrough.
func (p *pushConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	return core.SendBuf(ctx, p.shards[p.fh.Apply(b.Bytes())], b)
}

// SendBufs steers the burst in one pass: the shard function runs per
// message, and contiguous same-shard runs travel down as sub-bursts so
// a burst destined for one shard stays a single vectored send.
func (p *pushConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	sent := 0
	i := 0
	for i < len(bs) {
		shard := p.fh.Apply(bs[i].Bytes())
		j := i + 1
		for j < len(bs) && p.fh.Apply(bs[j].Bytes()) == shard {
			j++
		}
		if err := core.SendBufs(ctx, p.shards[shard], bs[i:j]); err != nil {
			core.ReleaseAll(bs[j:])
			cause := err
			if be, ok := err.(*core.BatchError); ok {
				cause = be.Err
			}
			return &core.BatchError{Sent: sent + core.BatchSent(err), Err: cause}
		}
		sent += j - i
		i = j
	}
	return nil
}

// RecvBufs blocks for the first fanned-in reply, then drains whatever
// the fan-in workers have already queued.
func (p *pushConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
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
		case m := <-p.in:
			into[n] = m
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

// Headroom reports the worst case across shard connections, so one
// buffer suffices whichever shard the message hashes to.
func (p *pushConn) Headroom() int {
	max := 0
	for _, c := range p.shards {
		if h := core.HeadroomOf(c); h > max {
			max = h
		}
	}
	return max
}

func (p *pushConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := p.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

// RecvBuf is Recv's zero-copy form. A reply already queued is taken
// before ctx's Done channel is asked for: a context makes it on first
// request.
func (p *pushConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	select {
	case m := <-p.in:
		return m, nil
	default:
	}
	select {
	case m := <-p.in:
		return m, nil
	case <-p.ctx.Done():
		return nil, core.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (p *pushConn) LocalAddr() core.Addr  { return p.canonical.LocalAddr() }
func (p *pushConn) RemoteAddr() core.Addr { return p.canonical.RemoteAddr() }

// Close stops and joins the fan-in workers, then releases the replies
// they queued that no receive took.
func (p *pushConn) Close() error {
	p.once.Do(func() {
		p.cancel()
		for _, c := range p.shards {
			c.Close()
		}
		p.canonical.Close()
		p.fanIns.Wait()
		for {
			select {
			case m := <-p.in:
				m.Release()
			default:
				return
			}
		}
	})
	return nil
}
