package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/bertha/transport"
	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/kv"
	"github.com/bertha-net/bertha/internal/wire"
	"github.com/bertha-net/bertha/internal/ycsb"
)

const (
	kvShards  = 3
	kvRecords = 10000
	kvValue   = 100
	// kvWindow is the number of requests a connection keeps outstanding.
	kvWindow = 16
)

// kvServer is the Fig. 5 server on real sockets, set up as
// cmd/bertha-kv does: one UDP listener per shard for client-push
// traffic, and a canonical endpoint whose shard chunnel steers the rest.
type kvServer struct {
	addr      bertha.Addr
	srv       *kv.Server
	listeners []bertha.Listener
	cancel    context.CancelFunc
	wg        sync.WaitGroup
}

// kvHooks lets the traced run interpose on the server without changing
// how it is built; the zero value interposes nothing.
type kvHooks struct {
	listener func(l bertha.Listener, idAt int) bertha.Listener
	queues   func(q []chan shard.Steered) []chan shard.Steered
}

// kvNet is the transport a KV world runs on: loopback UDP in the
// workload, an in-process pipe network in the layer pass.
type kvNet struct {
	listen func() (bertha.Listener, error)
	dial   func(host string, addr bertha.Addr) (bertha.Conn, error)
}

var udpNet = kvNet{
	listen: func() (bertha.Listener, error) { return transport.ListenUDP("srv", "127.0.0.1:0") },
	dial: func(host string, addr bertha.Addr) (bertha.Conn, error) {
		return transport.DialUDP(host, addr.Addr)
	},
}

func startKVServer(seed int64, net kvNet, h kvHooks) (*kvServer, error) {
	srv, err := kv.NewServer(kvShards)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &kvServer{srv: srv, cancel: cancel}
	fail := func(err error) (*kvServer, error) {
		s.close()
		return nil, err
	}
	wrapL := func(l bertha.Listener, idAt int) bertha.Listener {
		s.listeners = append(s.listeners, l)
		// Start the listener's reactor here, one listener at a time:
		// transport.registerReactor updates reactorShardGauges outside its
		// lock, so listeners whose first Accept calls run concurrently
		// (as kv.Server.ServeShard's do) race there. The race detector
		// found it in this package's smoke test; it is the library's to fix.
		if r, ok := l.(interface{ Shards() int }); ok {
			r.Shards()
		}
		if h.listener != nil {
			return h.listener(l, idAt)
		}
		return l
	}
	var shardAddrs []bertha.Addr
	for i := 0; i < kvShards; i++ {
		l, err := net.listen()
		if err != nil {
			return fail(err)
		}
		shardAddrs = append(shardAddrs, l.Addr())
		srv.ServeShard(i, wrapL(l, 0))
	}
	reg := bertha.NewRegistry()
	shard.RegisterServer(reg)
	shard.RegisterXDP(reg)
	env := bertha.NewEnv("srv")
	env.SetDialer(clientDialer{net, "srv"})
	queues := srv.Queues()
	if h.queues != nil {
		queues = h.queues(queues)
	}
	env.Provide(shard.EnvQueues, queues)
	ep, err := bertha.New("my-kv-srv",
		bertha.Wrap(bertha.Shard(shardAddrs, kv.ShardFunc(kvShards))),
		bertha.WithRegistry(reg), bertha.WithEnv(env))
	if err != nil {
		return fail(err)
	}
	base, err := net.listen()
	if err != nil {
		return fail(err)
	}
	s.addr = base.Addr()
	nl, err := ep.Listen(ctx, wrapL(base, 1)) // 1: the mux tag byte precedes the request
	if err != nil {
		return fail(err)
	}
	// Steered connections are captive: the application only holds them.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var held []bertha.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := nl.Accept(ctx)
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()

	gen, err := ycsb.NewGenerator(ycsb.Config{Workload: ycsb.WorkloadA, Records: kvRecords,
		ValueSize: kvValue, Seed: seed})
	if err != nil {
		return fail(err)
	}
	if err := srv.Preload(gen.InitialKeys(), bytes.Repeat([]byte{0xAB}, kvValue)); err != nil {
		return fail(err)
	}
	return s, nil
}

func (s *kvServer) close() {
	s.cancel()
	for _, l := range s.listeners {
		l.Close()
	}
	s.wg.Wait()
	s.srv.Close()
}

// clientDialer dials on net as a named host.
type clientDialer struct {
	net  kvNet
	host string
}

func (d clientDialer) Dial(ctx context.Context, addr bertha.Addr) (bertha.Conn, error) {
	return d.net.dial(d.host, addr)
}

// connectKV negotiates one client connection. push links the
// client-push implementation, so negotiation routes requests straight to
// the shard listeners; without it the server's steering path serves.
func connectKV(name string, addr bertha.Addr, net kvNet, push bool, dialer bertha.Dialer, wrapRaw func(bertha.Conn) bertha.Conn) (bertha.Conn, error) {
	reg := bertha.NewRegistry()
	if push {
		shard.RegisterClient(reg)
	}
	env := bertha.NewEnv("cli-" + name)
	env.SetDialer(dialer)
	ep, err := bertha.New(name, bertha.Wrap(), bertha.WithRegistry(reg), bertha.WithEnv(env))
	if err != nil {
		return nil, err
	}
	raw, err := net.dial(env.Host, addr)
	if err != nil {
		return nil, err
	}
	if wrapRaw != nil {
		raw = wrapRaw(raw)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return ep.Connect(ctx, raw)
}

// kvPending is one outstanding request.
type kvPending struct {
	req    kv.Request
	t0     time.Time // of the first try
	tries  int
	due    time.Time // this try's deadline, which ctx carries
	ctx    context.Context
	cancel context.CancelFunc
}

// kvClient keeps kvWindow YCSB-A requests outstanding from a single
// goroutine, speaking the kv wire format directly.
type kvClient struct {
	conn   bertha.Conn
	gen    *ycsb.Generator
	enc    *wire.Encoder
	nextID uint64
	window int
	out    []kvPending // earliest deadline first
	// draining is set when the run has been told to stop.
	draining bool
	// Hooks for the traced run, nil otherwise: codec sees every encode
	// and decode, done every verified request.
	codec func(id uint64, send bool, t0, t1 time.Time)
	done  func(id uint64, t0, t1 time.Time)
}

func newKVClient(conn bertha.Conn, connIdx int, seed int64) (*kvClient, error) {
	gen, err := ycsb.NewGenerator(ycsb.Config{Workload: ycsb.WorkloadA, Records: kvRecords,
		ValueSize: kvValue, Seed: seed + int64(connIdx) + 1})
	if err != nil {
		return nil, err
	}
	return &kvClient{conn: conn, gen: gen, enc: wire.NewEncoder(nil),
		nextID: uint64(connIdx+1) << 48, window: kvWindow}, nil
}

// issue sends the next generated request.
func (c *kvClient) issue() error {
	op := c.gen.Next()
	req := kv.Request{ID: c.nextID, Op: kv.OpGet, Key: op.Key}
	if op.Kind != ycsb.Read {
		req.Op, req.Value = kv.OpUpdate, op.Value
	}
	c.nextID++
	return c.send(kvPending{req: req, t0: time.Now()})
}

// send makes one try of p: it goes to the back of the window, under a
// deadline of its own, whether or not the send works.
func (c *kvClient) send(p kvPending) error {
	start := time.Now()
	p.tries++
	p.due = start.Add(opDeadline)
	p.ctx, p.cancel = context.WithDeadline(context.Background(), p.due)
	c.out = append(c.out, p)
	c.enc.Reset()
	if err := kv.EncodeRequest(c.enc, p.req); err != nil {
		return err
	}
	if c.codec != nil {
		c.codec(p.req.ID, true, start, time.Now())
	}
	return c.conn.Send(p.ctx, c.enc.Bytes())
}

// complete receives one response and settles the request it answers,
// or, at the earliest deadline, sends every expired request again
// (updates carry their value, so a second arrival changes nothing) and
// fails those that are out of tries.
func (c *kvClient) complete(rec *recorder) {
	m, err := c.conn.Recv(c.out[0].ctx)
	now := time.Now()
	if err != nil {
		// A broken connection fails its window at once, and slowly enough
		// that the failures do not become a busy loop.
		broken := !errors.Is(err, context.DeadlineExceeded)
		if broken {
			time.Sleep(time.Millisecond)
		}
		n := 0
		for n < len(c.out) && (broken || !now.Before(c.out[n].due)) {
			n++
		}
		expired := append([]kvPending(nil), c.out[:n]...)
		c.out = c.out[:copy(c.out, c.out[n:])]
		for _, p := range expired {
			p.cancel()
			if broken || c.draining || p.tries == opTries {
				rec.fail(err)
				continue
			}
			rec.retry(1)
			_ = c.send(p) // a try that cannot be sent meets its deadline
		}
		return
	}
	resp, err := kv.DecodeResponse(m)
	if c.codec != nil && err == nil {
		c.codec(resp.ID, false, now, time.Now())
	}
	if err != nil {
		return // unparseable: its request will meet its deadline
	}
	for i, p := range c.out {
		if p.req.ID != resp.ID {
			continue
		}
		p.cancel()
		c.out = append(c.out[:i], c.out[i+1:]...)
		want := 0
		if p.req.Op == kv.OpGet {
			want = kvValue
		}
		if resp.Status != kv.StatusOK || len(resp.Value) != want {
			rec.fail(errWrongReply)
		} else {
			end := time.Now()
			rec.ok(end.Sub(p.t0))
			if c.done != nil {
				c.done(p.req.ID, p.t0, end)
			}
		}
		return
	}
	// No such request outstanding: the reply to an extra try.
}

func (c *kvClient) run(stop *atomic.Bool, rec *recorder) {
	for !stop.Load() {
		for len(c.out) < c.window {
			if err := c.issue(); err != nil {
				break // the request stays outstanding and is tried again at its deadline
			}
		}
		if len(c.out) > 0 {
			c.complete(rec)
		}
	}
	// The measured window is over: what is outstanding gets its deadline
	// and no further try.
	c.draining = true
	for len(c.out) > 0 {
		c.complete(rec)
	}
}

func setupKV(cfg runConfig) (*world, error) {
	srv, err := startKVServer(cfg.seed, udpNet, kvHooks{})
	if err != nil {
		return nil, err
	}
	w := &world{}
	w.close = func() {
		for _, c := range w.clients {
			c.(*kvClient).conn.Close()
		}
		srv.close()
	}
	for i := 0; i < numConns; i++ {
		name := fmt.Sprintf("kv-cli-%d", i)
		// Connection 0 pushes to the shards; connection 1 is steered.
		conn, err := connectKV(name, srv.addr, udpNet, i == 0, clientDialer{udpNet, "cli-" + name}, nil)
		if err != nil {
			w.close()
			return nil, err
		}
		c, err := newKVClient(conn, i, cfg.seed)
		if err != nil {
			conn.Close()
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, c)
		// One verified request proves the path before anything is timed.
		var on atomic.Bool
		on.Store(true)
		first := newRecorder(&on, 1)
		if err := c.issue(); err != nil {
			w.close()
			return nil, err
		}
		for len(c.out) > 0 {
			c.complete(first)
		}
		if len(first.lat) != 1 {
			w.close()
			return nil, fmt.Errorf("kv: first request on connection %d failed", i)
		}
	}
	return w, nil
}
