package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// multiImpl collapses group connections: Send fans out with a tag byte,
// Recv strips it. Used to exercise MultiWrapper dispatch.
type multiImpl struct {
	passImpl
	multiWraps atomic.Int32
}

func (m *multiImpl) WrapMulti(ctx context.Context, conns []core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	m.multiWraps.Add(1)
	return &groupConn{conns: conns}, nil
}

type groupConn struct {
	conns []core.Conn
}

func (g *groupConn) Send(ctx context.Context, p []byte) error {
	for _, c := range g.conns {
		if err := c.Send(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

func (g *groupConn) Recv(ctx context.Context) ([]byte, error) {
	return g.conns[0].Recv(ctx) // first peer only, enough for the test
}

func (g *groupConn) LocalAddr() core.Addr  { return g.conns[0].LocalAddr() }
func (g *groupConn) RemoteAddr() core.Addr { return g.conns[0].RemoteAddr() }
func (g *groupConn) Close() error {
	for _, c := range g.conns {
		c.Close()
	}
	return nil
}

// startReplicas launches n server endpoints sharing a registry factory,
// each echoing "<name>:" + message.
func startReplicas(t *testing.T, n int, mkReg func() *core.Registry) (pn *transport.PipeNetwork, addrs []core.Addr) {
	t.Helper()
	return startReplicasOf(t, n, spec.Seq(spec.New("group")), mkReg)
}

// startReplicasOf is startReplicas with the servers' stack sp.
func startReplicasOf(t *testing.T, n int, sp *spec.Stack, mkReg func() *core.Registry) (pn *transport.PipeNetwork, addrs []core.Addr) {
	t.Helper()
	ctx := ctxT(t)
	pn = transport.NewPipeNetwork()
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		srv, err := core.NewEndpoint("replica-"+name, sp, core.WithRegistry(mkReg()))
		if err != nil {
			t.Fatal(err)
		}
		base, err := pn.Listen("host-"+name, "svc-"+name)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, base.Addr())
		nl, err := srv.Listen(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		go func(name string) {
			for {
				conn, err := nl.Accept(ctx)
				if err != nil {
					return
				}
				go func(conn core.Conn) {
					for {
						m, err := conn.Recv(ctx)
						if err != nil {
							return
						}
						conn.Send(ctx, append([]byte(name+":"), m...))
					}
				}(conn)
			}
		}(name)
	}
	return pn, addrs
}

func groupReg(multi bool) func() *core.Registry {
	return func() *core.Registry {
		reg := core.NewRegistry()
		info := core.ImplInfo{Name: "group/fb", Type: "group",
			Endpoint: spec.EndpointBoth, Location: core.LocUserspace}
		if multi {
			m := &multiImpl{}
			m.info = info
			reg.MustRegister(m)
		} else {
			p := &passImpl{info: info}
			reg.MustRegister(p)
		}
		return reg
	}
}

func dialAll(t *testing.T, pn *transport.PipeNetwork, addrs []core.Addr) []core.Conn {
	t.Helper()
	ctx := ctxT(t)
	var raws []core.Conn
	for _, a := range addrs {
		raw, err := pn.DialFrom(ctx, "clienthost", a)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	return raws
}

func TestConnectMultiFanOut(t *testing.T) {
	ctx := ctxT(t)
	pn, addrs := startReplicas(t, 3, groupReg(false))
	cli, _ := core.NewEndpoint("ordered-multicast-client", spec.Seq(), core.WithRegistry(groupReg(false)()))
	conn, err := cli.ConnectMulti(ctx, dialAll(t, pn, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(ctx, []byte("op")); err != nil {
		t.Fatal(err)
	}
	// All three replicas respond (fan-in order arbitrary).
	got := map[string]bool{}
	for i := 0; i < 3; i++ {
		m, err := conn.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		got[string(m)] = true
	}
	for _, want := range []string{"a:op", "b:op", "c:op"} {
		if !got[want] {
			t.Errorf("missing reply %q in %v", want, got)
		}
	}
}

func TestConnectMultiUsesMultiWrapper(t *testing.T) {
	ctx := ctxT(t)
	pn, addrs := startReplicas(t, 3, groupReg(false))
	regC := groupReg(true)()
	cli, _ := core.NewEndpoint("cli", spec.Seq(spec.New("group")), core.WithRegistry(regC))
	conn, err := cli.ConnectMulti(ctx, dialAll(t, pn, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	impl, _ := regC.Lookup("group/fb")
	if impl.(*multiImpl).multiWraps.Load() != 1 {
		t.Error("MultiWrapper was not used")
	}
	conn.Send(ctx, []byte("x"))
	if m, err := conn.Recv(ctx); err != nil || string(m) != "a:x" {
		t.Fatalf("recv: %q %v", m, err)
	}
}

func TestConnectMultiSinglePeerDegeneratesToConnect(t *testing.T) {
	ctx := ctxT(t)
	pn, addrs := startReplicas(t, 1, groupReg(false))
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(groupReg(false)()))
	conn, err := cli.ConnectMulti(ctx, dialAll(t, pn, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send(ctx, []byte("solo"))
	if m, err := conn.Recv(ctx); err != nil || string(m) != "a:solo" {
		t.Fatalf("recv: %q %v", m, err)
	}
}

func TestConnectMultiEmptyFails(t *testing.T) {
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(core.NewRegistry()))
	if _, err := cli.ConnectMulti(ctxT(t), nil); !errors.Is(err, core.ErrNegotiation) {
		t.Errorf("empty group: %v", err)
	}
}

func TestConnectMultiInconsistentBindingsFail(t *testing.T) {
	ctx := ctxT(t)
	pn := transport.NewPipeNetwork()
	// Replica A binds group/fb; replica B declares a different chunnel.
	regA := groupReg(false)()
	srvA, _ := core.NewEndpoint("a", spec.Seq(spec.New("group")), core.WithRegistry(regA))
	baseA, _ := pn.Listen("ha", "a")
	nlA, _ := srvA.Listen(ctx, baseA)
	go nlA.Accept(ctx)

	regB := core.NewRegistry()
	regB.MustRegister(&passImpl{info: core.ImplInfo{Name: "other/fb", Type: "other",
		Endpoint: spec.EndpointBoth, Location: core.LocUserspace}})
	srvB, _ := core.NewEndpoint("b", spec.Seq(spec.New("other")), core.WithRegistry(regB))
	baseB, _ := pn.Listen("hb", "b")
	nlB, _ := srvB.Listen(ctx, baseB)
	go nlB.Accept(ctx)

	regC := groupReg(false)()
	regC.MustRegister(&passImpl{info: core.ImplInfo{Name: "other/fb", Type: "other",
		Endpoint: spec.EndpointBoth, Location: core.LocUserspace}})
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(regC))
	raws := dialAll(t, pn, []core.Addr{{Net: "pipe", Addr: "a"}, {Net: "pipe", Addr: "b"}})
	_, err := cli.ConnectMulti(ctx, raws)
	if err == nil {
		t.Fatal("inconsistent group bindings must fail")
	}
}

func TestFanConnCloseUnblocks(t *testing.T) {
	ctx := ctxT(t)
	pn, addrs := startReplicas(t, 2, groupReg(false))
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(groupReg(false)()))
	conn, err := cli.ConnectMulti(ctx, dialAll(t, pn, addrs))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := conn.Recv(context.Background())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("recv after close should fail")
		}
	case <-time.After(2 * time.Second):
		t.Error("recv did not unblock on close")
	}
}

// TestConnectMultiTelemetry: a group connection is accounted for like
// Connect's: counted in core/open_conns while it is open, with a
// per-layer hop row for every layer once it has carried traffic, and
// traced as connected.
func TestConnectMultiTelemetry(t *testing.T) {
	ctx := ctxT(t)
	pn, addrs := startReplicas(t, 2, groupReg(false))
	tel := telemetry.New()
	cli, _ := core.NewEndpoint("cli", spec.Seq(spec.New("group")), core.WithRegistry(groupReg(false)()),
		core.WithTelemetry(tel))
	conn, err := cli.ConnectMulti(ctx, dialAll(t, pn, addrs))
	if err != nil {
		t.Fatal(err)
	}
	open := tel.Gauge("core/open_conns")
	if v := open.Value(); v != 1 {
		t.Errorf("core/open_conns reads %d with the group connection open, want 1", v)
	}
	if err := conn.Send(ctx, []byte("op")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := conn.Recv(ctx); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if hops := core.ConnHopStats(conn); len(hops) != 2 {
		t.Errorf("ConnHopStats returned %d rows, want one per layer (group, transport): %+v", len(hops), hops)
	}
	connected := false
	for _, ev := range tel.Trace().Events() {
		connected = connected || (ev.Side == "client" && ev.Kind == telemetry.TraceConnected)
	}
	if !connected {
		t.Errorf("the client trace holds no %s event", telemetry.TraceConnected)
	}
	conn.Close()
	if v := open.Value(); v != 0 {
		t.Errorf("core/open_conns reads %d after Close, want 0", v)
	}
}

// pumpImpl's connection runs a goroutine from its Wrap until it is
// closed, as a chunnel with a receive pump does.
type pumpImpl struct{ passImpl }

type pumpConn struct {
	core.Conn
	done chan struct{}
	once sync.Once
}

func (p *pumpImpl) Wrap(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	pc := &pumpConn{Conn: conn, done: make(chan struct{})}
	go pc.pump()
	return pc, nil
}

func (p *pumpConn) pump() { <-p.done }

func (p *pumpConn) Close() error {
	p.once.Do(func() { close(p.done) })
	return p.Conn.Close()
}

// clientFailImpl's Wrap fails on the client.
type clientFailImpl struct{ passImpl }

func (f *clientFailImpl) Wrap(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
	if side == core.SideClient {
		return nil, errors.New("refused on the client")
	}
	return conn, nil
}

// TestWrapFailureClosesWrapped: when an outer node's Wrap fails, the
// connections the inner node already wrapped are closed, and no
// goroutine they started is left, for one peer and for a group.
func TestWrapFailureClosesWrapped(t *testing.T) {
	mkReg := func() *core.Registry {
		reg := core.NewRegistry()
		reg.MustRegister(&clientFailImpl{passImpl{info: core.ImplInfo{Name: "fail/fb", Type: "fail",
			Endpoint: spec.EndpointBoth, Location: core.LocUserspace}}})
		reg.MustRegister(&pumpImpl{passImpl{info: core.ImplInfo{Name: "pump/fb", Type: "pump",
			Endpoint: spec.EndpointBoth, Location: core.LocUserspace}}})
		return reg
	}
	for _, peers := range []int{1, 2} {
		ctx := ctxT(t)
		pn, addrs := startReplicasOf(t, peers, spec.Seq(spec.New("fail"), spec.New("pump")), mkReg)
		cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(mkReg()))
		raws := dialAll(t, pn, addrs)
		var err error
		running := testutil.Track(ctx, func() { _, err = cli.ConnectMulti(ctx, raws) })
		if err == nil {
			t.Fatalf("%d peers: connected through a Wrap that fails", peers)
		}
		deadline := time.Now().Add(2 * time.Second)
		for running("pumpConn") > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d peers: %d pumps of the failed stack still run", peers, running("pumpConn"))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestFanInCloseJoinsAndReleases closes a fan-in whose workers have
// filled its queue and are blocked mid-burst: Close returns with every
// worker joined and every message the fan-in took off its connections
// back in the pool.
func TestFanInCloseJoinsAndReleases(t *testing.T) {
	ctx := context.Background()
	baseG := runtime.NumGoroutine()
	baseBufs := wire.BufsOutstanding()

	const conns, each = 3, 400 // 3 connections × 400 > the 1024-slot queue
	var local, remote []core.Conn
	for i := 0; i < conns; i++ {
		a := core.Addr{Net: "pipe", Host: "cli", Addr: "cli"}
		b := core.Addr{Net: "pipe", Host: "srv", Addr: "srv"}
		l, r := transport.Pipe(a, b, each)
		local, remote = append(local, l), append(remote, r)
	}
	f := core.NewFanIn(local)
	for _, r := range remote {
		for i := 0; i < each; i++ {
			if err := r.Send(ctx, []byte("reply")); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFull := func() {
		deadline := time.Now().Add(5 * time.Second)
		for n, c := core.FanInQueued(f); n < c; n, c = core.FanInQueued(f) {
			if time.Now().After(deadline) {
				t.Fatalf("queue holds %d of %d", n, c)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFull()
	// Some messages are taken and released by the application; the
	// workers refill the queue behind them.
	for i := 0; i < 10; i++ {
		b, err := f.RecvBuf(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	waitFull()

	f.Close()
	for _, r := range remote {
		r.Close() // both halves closed: the pipes release what they still hold
	}
	// Both halves of every pipe are closed, so the pipes hold nothing;
	// the count may fall below the baseline, when an earlier test's
	// buffer comes back late, but not stay above it.
	if got := wire.BufsOutstanding(); got > baseBufs {
		t.Fatalf("%d pooled buffers outstanding after Close, want at most the baseline %d", got, baseBufs)
	}
	if _, err := f.RecvBuf(ctx); !errors.Is(err, core.ErrClosed) {
		t.Errorf("RecvBuf after Close: %v, want ErrClosed", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseG {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want the baseline %d", runtime.NumGoroutine(), baseG)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCaptiveCloseJoins: a captive's Close returns once every goroutine
// it started has returned, and then closes the connections it owns;
// Send passes through and Recv has nothing.
func TestCaptiveCloseJoins(t *testing.T) {
	ctx := ctxT(t)
	a := core.Addr{Net: "pipe", Addr: "a"}
	conn, peer := transport.Pipe(a, a, 4)
	owned, ownedPeer := transport.Pipe(a, a, 4)
	defer peer.Close()
	defer ownedPeer.Close()
	c := core.NewCaptive(conn, owned)
	var done atomic.Int32
	for i := 0; i < 2; i++ {
		c.Go(func(ctx context.Context) {
			<-ctx.Done()
			time.Sleep(20 * time.Millisecond) // a worker slow to wind down
			done.Add(1)
		})
	}
	if err := c.Send(ctx, []byte("out")); err != nil {
		t.Fatal(err)
	}
	if m, err := peer.Recv(ctx); err != nil || string(m) != "out" {
		t.Fatalf("peer got %q, %v; want the captive's send", m, err)
	}
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	if _, err := c.Recv(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Recv on an open captive: %v, want the context's deadline", err)
	}
	cancel()
	c.Close()
	if n := done.Load(); n != 2 {
		t.Fatalf("%d of 2 workers had returned when Close returned", n)
	}
	if _, err := c.Recv(ctx); !errors.Is(err, core.ErrClosed) {
		t.Errorf("Recv after Close: %v, want ErrClosed", err)
	}
	for name, p := range map[string]core.Conn{"connection": peer, "owned connection": ownedPeer} {
		if _, err := p.Recv(ctx); err == nil {
			t.Errorf("the captive's %s is open after Close", name)
		}
	}
}
