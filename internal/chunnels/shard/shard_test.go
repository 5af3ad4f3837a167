package shard_test

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/xdp"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

const nshards = 3

var fh = xdp.FieldHash{Offset: 0, Length: 4, Shards: nshards}

// cluster is a test shard deployment: three workers, each with a raw
// listener (for direct/forwarded requests) and a steered queue (for the
// XDP path). Every request is answered with the request bytes plus the
// shard id, so tests can verify routing.
type cluster struct {
	net    *transport.PipeNetwork
	addrs  []core.Addr
	queues []chan shard.Steered
}

func startCluster(t *testing.T) *cluster {
	t.Helper()
	ctx := ctxT(t)
	c := &cluster{net: transport.NewPipeNetwork()}
	for i := 0; i < nshards; i++ {
		l, err := c.net.Listen("srvhost", fmt.Sprintf("shard%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		c.addrs = append(c.addrs, l.Addr())
		q := make(chan shard.Steered, 1024)
		c.queues = append(c.queues, q)
		// Raw listener path (client push / server fallback forwarding).
		go func() {
			for {
				conn, err := l.Accept(ctx)
				if err != nil {
					return
				}
				go func(conn core.Conn) {
					for {
						m, err := conn.Recv(ctx)
						if err != nil {
							return
						}
						conn.Send(ctx, append(append([]byte{}, m...), byte(i)))
					}
				}(conn)
			}
		}()
		// Steered queue path (XDP).
		go func() {
			for s := range q {
				s.Reply(ctx, append(append([]byte{}, s.Payload...), byte(i)))
			}
		}()
	}
	return c
}

// connect negotiates one client connection against a shard server with
// the given per-side registries and server policy.
func connect(t *testing.T, c *cluster, regC, regS *core.Registry, policy core.Policy) core.Conn {
	t.Helper()
	ctx := ctxT(t)
	envS := core.NewEnv("srvhost")
	envS.SetDialer(&transport.MultiDialer{HostID: "srvhost", Pipe: c.net})
	envS.Provide(shard.EnvQueues, c.queues)
	envC := core.NewEnv("clihost")
	envC.SetDialer(&transport.MultiDialer{HostID: "clihost", Pipe: c.net})

	opts := []core.Option{core.WithRegistry(regS), core.WithEnv(envS)}
	if policy != nil {
		opts = append(opts, core.WithPolicy(policy))
	}
	srvEp, err := core.NewEndpoint("my-kv-srv", spec.Seq(shard.Node(c.addrs, fh)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	cliEp, err := core.NewEndpoint("kv-client", spec.Seq(), core.WithRegistry(regC), core.WithEnv(envC))
	if err != nil {
		t.Fatal(err)
	}

	svcName := fmt.Sprintf("canonical-%p", regC)
	baseL, err := c.net.Listen("srvhost", svcName)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { baseL.Close() })
	nl, err := srvEp.Listen(ctx, baseL)
	if err != nil {
		t.Fatal(err)
	}
	srvConns := make(chan core.Conn, 1)
	go func() {
		conn, err := nl.Accept(ctx)
		if err == nil {
			srvConns <- conn
		}
	}()
	raw, err := c.net.DialFrom(ctx, "clihost", core.Addr{Net: "pipe", Addr: svcName})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cliEp.Connect(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case sc := <-srvConns:
		t.Cleanup(func() { conn.Close(); sc.Close() })
	case <-time.After(10 * time.Second):
		t.Fatal("server never accepted")
	}
	return conn
}

// exercise sends n requests and verifies each reply carries the shard id
// the field hash predicts.
func exercise(t *testing.T, conn core.Conn, n int) {
	t.Helper()
	ctx := ctxT(t)
	outstanding := map[string]byte{}
	for i := 0; i < n; i++ {
		req := []byte(fmt.Sprintf("%04d-req", i))
		outstanding[string(req)] = byte(fh.Apply(req))
		if err := conn.Send(ctx, req); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := conn.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		req, shardID := m[:len(m)-1], m[len(m)-1]
		want, ok := outstanding[string(req)]
		if !ok {
			t.Fatalf("unexpected reply for %q", req)
		}
		delete(outstanding, string(req))
		if shardID != want {
			t.Errorf("request %q handled by shard %d, want %d", req, shardID, want)
		}
	}
	if len(outstanding) != 0 {
		t.Errorf("%d requests unanswered", len(outstanding))
	}
}

func TestClientPushRoutesDirectly(t *testing.T) {
	c := startCluster(t)
	regC, regS := core.NewRegistry(), core.NewRegistry()
	shard.RegisterClient(regC)
	shard.RegisterServer(regS) // fallback presence for Listen
	conn := connect(t, c, regC, regS, nil)
	exercise(t, conn, 60)
}

func TestServerFallbackSteers(t *testing.T) {
	c := startCluster(t)
	regC, regS := core.NewRegistry(), core.NewRegistry()
	shard.RegisterServer(regS)
	conn := connect(t, c, regC, regS, core.PreferImpl(shard.ImplServer))
	exercise(t, conn, 60)
}

func TestXDPSteersThroughQueues(t *testing.T) {
	c := startCluster(t)
	regC, regS := core.NewRegistry(), core.NewRegistry()
	shard.RegisterServer(regS)
	x := shard.RegisterXDP(regS)
	conn := connect(t, c, regC, regS, nil) // default policy: xdp wins by priority
	exercise(t, conn, 60)
	st := x.Hook().Stats()
	if st.Redirected < 60 {
		t.Errorf("xdp hook redirected %d packets, want >= 60", st.Redirected)
	}
	if name, ok := x.Hook().Attached(); !ok || name != "shard-steer" {
		t.Errorf("hook attachment: %q %t", name, ok)
	}
}

// TestXDPInterposedQueues puts an interposer between the steering
// implementation and the shard workers, the way the benchmark's traced
// run does: it copies each Steered and wraps its Reply. The interposer
// sees exactly one Reply call per request, and a pipelined burst is still
// answered completely.
func TestXDPInterposedQueues(t *testing.T) {
	c := startCluster(t)
	ctx := ctxT(t)
	var taken, replied atomic.Int64
	real := c.queues
	c.queues = make([]chan shard.Steered, len(real))
	for i := range real {
		in := make(chan shard.Steered, cap(real[i]))
		c.queues[i] = in
		go func(out chan<- shard.Steered) {
			for {
				var st shard.Steered
				select {
				case st = <-in:
				case <-ctx.Done():
					return
				}
				taken.Add(1)
				reply := st.Reply
				st.Reply = func(ctx context.Context, p []byte) error {
					replied.Add(1)
					return reply(ctx, p)
				}
				select {
				case out <- st:
				case <-ctx.Done():
					return
				}
			}
		}(real[i])
	}
	regC, regS := core.NewRegistry(), core.NewRegistry()
	shard.RegisterServer(regS)
	shard.RegisterXDP(regS)
	conn := connect(t, c, regC, regS, nil)
	exercise(t, conn, 200)
	if taken.Load() != 200 || replied.Load() != 200 {
		t.Errorf("interposer took %d requests and saw %d Reply calls, want 200 and 200", taken.Load(), replied.Load())
	}
}

func TestXDPTeardownDetaches(t *testing.T) {
	c := startCluster(t)
	regC, regS := core.NewRegistry(), core.NewRegistry()
	shard.RegisterServer(regS)
	x := shard.RegisterXDP(regS)
	conn := connect(t, c, regC, regS, nil)
	exercise(t, conn, 9)
	conn.Close() // client side
	// The server-side managed conn owns the teardown; find it via the
	// cleanup ordering — instead close via the test cleanup and verify
	// after: simulate by direct teardown through another connection
	// cycle.
	env := core.NewEnv("srvhost")
	if err := x.Teardown(ctxT(t), env); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	if _, ok := x.Hook().Attached(); ok {
		t.Error("program still attached after last teardown")
	}
	log := env.ConfigLog()
	if len(log) == 0 || log[len(log)-1].Action != "detach-program" {
		t.Errorf("config log: %v", log)
	}
}

func TestClientPreferredOverServerAccelerated(t *testing.T) {
	// Default policy: a client-provided implementation wins even over a
	// higher-priority server offload (§4.3 prototype policy). This is
	// the "Client Push" scenario arising naturally.
	c := startCluster(t)
	regC, regS := core.NewRegistry(), core.NewRegistry()
	shard.RegisterClient(regC)
	shard.RegisterServer(regS)
	x := shard.RegisterXDP(regS)
	conn := connect(t, c, regC, regS, nil)
	exercise(t, conn, 30)
	if st := x.Hook().Stats(); st.Processed != 0 {
		t.Errorf("xdp hook should be idle under client push: %+v", st)
	}
}

func TestMixedClients(t *testing.T) {
	// One client links the push implementation, the other does not: the
	// same server serves both, each over its negotiated variant (§5
	// "Mixed").
	c := startCluster(t)
	regS := core.NewRegistry()
	shard.RegisterServer(regS)
	x := shard.RegisterXDP(regS)

	regPush := core.NewRegistry()
	shard.RegisterClient(regPush)
	connPush := connect(t, c, regPush, regS, nil)

	regPlain := core.NewRegistry()
	connSrv := connect(t, c, regPlain, regS, nil)

	exercise(t, connPush, 30)
	exercise(t, connSrv, 30)
	if st := x.Hook().Stats(); st.Redirected < 30 {
		t.Errorf("xdp should have steered the plain client's traffic: %+v", st)
	}
}

func TestShardArgsValidation(t *testing.T) {
	c := startCluster(t)
	ctx := ctxT(t)
	regS := core.NewRegistry()
	shard.RegisterServer(regS)
	envS := core.NewEnv("srvhost")
	envS.SetDialer(&transport.MultiDialer{HostID: "srvhost", Pipe: c.net})

	// Mismatched shard count.
	bad := xdp.FieldHash{Offset: 0, Length: 4, Shards: 5}
	srvEp, _ := core.NewEndpoint("bad", spec.Seq(shard.Node(c.addrs, bad)),
		core.WithRegistry(regS), core.WithEnv(envS), core.WithPolicy(core.PreferImpl(shard.ImplServer)))
	baseL, _ := c.net.Listen("srvhost", "bad-svc")
	nl, err := srvEp.Listen(ctx, baseL)
	if err != nil {
		t.Fatal(err)
	}
	go nl.Accept(ctx)
	cliEp, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(core.NewRegistry()))
	raw, _ := c.net.DialFrom(ctx, "clihost", core.Addr{Net: "pipe", Addr: "bad-svc"})
	if _, err := cliEp.Connect(ctx, raw); err == nil {
		t.Error("mismatched shard count should fail the connection")
	}
}

func TestPushConnRequestsSpreadShards(t *testing.T) {
	c := startCluster(t)
	regC, regS := core.NewRegistry(), core.NewRegistry()
	shard.RegisterClient(regC)
	shard.RegisterServer(regS)
	conn := connect(t, c, regC, regS, nil)
	ctx := ctxT(t)
	seen := map[byte]bool{}
	for i := 0; i < 200; i++ {
		req := []byte(fmt.Sprintf("%04dxx", i))
		conn.Send(ctx, req)
		m, err := conn.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m[:len(m)-1], req) {
			t.Fatalf("reply mismatch: %q vs %q", m, req)
		}
		seen[m[len(m)-1]] = true
	}
	if len(seen) != nshards {
		t.Errorf("only %d of %d shards used", len(seen), nshards)
	}
}
