package localfast_test

import (
	"context"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/localfast"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// setup builds a server on srvHost with a localfast stack and an IPC
// listener, and a client on cliHost, both over one pipe "network"
// (standing in for UDP) plus a second pipe network standing in for the
// host-local IPC namespace.
func setup(t *testing.T, srvHost, cliHost string) (cli, srv core.Conn) {
	t.Helper()
	ctx := ctxT(t)
	net := transport.NewPipeNetwork() // "the network"
	ipc := transport.NewPipeNetwork() // "host-local IPC"

	regS, regC := core.NewRegistry(), core.NewRegistry()
	localfast.Register(regS)
	localfast.Register(regC)

	envS := core.NewEnv(srvHost)
	ipcL, err := ipc.Listen(srvHost, "app.sock")
	if err != nil {
		t.Fatal(err)
	}
	envS.Provide(localfast.EnvListener, ipcL)
	envS.SetDialer(&transport.MultiDialer{HostID: srvHost, Pipe: ipc})

	envC := core.NewEnv(cliHost)
	envC.SetDialer(&transport.MultiDialer{HostID: cliHost, Pipe: ipc})

	srvEp, err := core.NewEndpoint("container-app", spec.Seq(localfast.Node()),
		core.WithRegistry(regS), core.WithEnv(envS))
	if err != nil {
		t.Fatal(err)
	}
	cliEp, err := core.NewEndpoint("client", spec.Seq(),
		core.WithRegistry(regC), core.WithEnv(envC))
	if err != nil {
		t.Fatal(err)
	}

	baseL, err := net.Listen(srvHost, "svc")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := srvEp.Listen(ctx, baseL)
	if err != nil {
		t.Fatal(err)
	}
	srvCh := make(chan core.Conn, 1)
	go func() {
		c, err := nl.Accept(ctx)
		if err == nil {
			srvCh <- c
		}
	}()
	raw, err := net.DialFrom(ctx, cliHost, core.Addr{Net: "pipe", Addr: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	cconn, err := cliEp.Connect(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case sconn := <-srvCh:
		t.Cleanup(func() { cconn.Close(); sconn.Close() })
		return cconn, sconn
	case <-time.After(10 * time.Second):
		t.Fatal("server never accepted")
		return nil, nil
	}
}

func TestSameHostUsesIPC(t *testing.T) {
	ctx := ctxT(t)
	cli, srv := setup(t, "hostA", "hostA")
	// Data flows and the spliced conns live on the IPC namespace: their
	// local addresses are "pipe" addresses under app.sock.
	if err := cli.Send(ctx, []byte("fast path")); err != nil {
		t.Fatal(err)
	}
	if m, err := srv.Recv(ctx); err != nil || string(m) != "fast path" {
		t.Fatalf("recv: %q %v", m, err)
	}
	if err := srv.Send(ctx, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	if m, err := cli.Recv(ctx); err != nil || string(m) != "reply" {
		t.Fatalf("reply: %q %v", m, err)
	}
	// The data path really is the IPC listener's namespace.
	if got := srv.LocalAddr().Addr; got != "app.sock" {
		t.Errorf("server data path address %q, want app.sock", got)
	}
	if got := cli.RemoteAddr().Addr; got != "app.sock" {
		t.Errorf("client remote %q, want app.sock", got)
	}
}

func TestCrossHostUsesNetwork(t *testing.T) {
	ctx := ctxT(t)
	cli, srv := setup(t, "hostA", "hostB")
	if err := cli.Send(ctx, []byte("over the network")); err != nil {
		t.Fatal(err)
	}
	if m, err := srv.Recv(ctx); err != nil || string(m) != "over the network" {
		t.Fatalf("recv: %q %v", m, err)
	}
	// The passthrough branch keeps the original network path.
	if got := srv.LocalAddr().Addr; got == "app.sock" {
		t.Error("cross-host connection must not use the IPC path")
	}
}

func TestManySequentialConnections(t *testing.T) {
	// The accept loop and token matching must survive many connections
	// (the Figure 3 experiment runs 10000), over an IPC listener that
	// hands a connection over before its token arrives (pipe) and one
	// that hands it over with the token queued (a unix datagram socket).
	ipc := transport.NewPipeNetwork()
	for _, kind := range []struct {
		name   string
		listen func(t *testing.T) core.Listener
	}{
		{"pipe", func(t *testing.T) core.Listener {
			l, err := ipc.Listen("h", "app.sock")
			if err != nil {
				t.Fatal(err)
			}
			return l
		}},
		{"unix", func(t *testing.T) core.Listener {
			l, err := transport.ListenUnix("h", filepath.Join(t.TempDir(), "app.sock"))
			if err != nil {
				t.Fatal(err)
			}
			return l
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			manySequentialConnections(t, ipc, kind.listen(t))
		})
	}
}

func manySequentialConnections(t *testing.T, ipc *transport.PipeNetwork, ipcL core.Listener) {
	ctx := ctxT(t)
	defer ipcL.Close()
	net := transport.NewPipeNetwork()
	reg := core.NewRegistry()
	localfast.Register(reg)

	envS := core.NewEnv("h")
	envS.Provide(localfast.EnvListener, ipcL)
	envS.SetDialer(&transport.MultiDialer{HostID: "h", Pipe: ipc})
	envC := core.NewEnv("h")
	envC.SetDialer(&transport.MultiDialer{HostID: "h", Pipe: ipc})

	srvEp, _ := core.NewEndpoint("srv", spec.Seq(localfast.Node()), core.WithRegistry(reg), core.WithEnv(envS))
	cliEp, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(reg), core.WithEnv(envC))

	baseL, _ := net.Listen("h", "svc")
	nl, _ := srvEp.Listen(ctx, baseL)
	go func() {
		for {
			c, err := nl.Accept(ctx)
			if err != nil {
				return
			}
			go func(c core.Conn) {
				defer c.Close()
				for {
					m, err := c.Recv(ctx)
					if err != nil {
						return
					}
					if err := c.Send(ctx, m); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	for i := 0; i < 30; i++ {
		raw, err := net.DialFrom(ctx, "h", core.Addr{Net: "pipe", Addr: "svc"})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := cliEp.Connect(ctx, raw)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		if got, want := conn.RemoteAddr(), ipcL.Addr(); got != want {
			t.Fatalf("connection %d: data path %v, want the IPC listener %v", i, got, want)
		}
		for k := 0; k < 3; k++ { // 3 requests per connection, as in Fig. 3
			if err := conn.Send(ctx, []byte{byte(i), byte(k)}); err != nil {
				t.Fatalf("send %d/%d: %v", i, k, err)
			}
			m, err := conn.Recv(ctx)
			if err != nil || m[0] != byte(i) || m[1] != byte(k) {
				t.Fatalf("echo %d/%d: %v %v", i, k, m, err)
			}
		}
		conn.Close()
	}
}

// unixSplice is a localfast server and client on one host over a pipe
// network, spliced onto a real unix datagram IPC listener. The server
// echoes one message per connection and closes it, as connect_churn's
// does. It signals accepted when it holds a spliced connection, and
// closed when it has closed it.
type unixSplice struct {
	net              *transport.PipeNetwork
	cliEp            *core.Endpoint
	accepted, closed chan struct{}
}

func newUnixSplice(t *testing.T) *unixSplice {
	t.Helper()
	ctx := ctxT(t)
	ipcL, err := transport.ListenUnix("h", filepath.Join(t.TempDir(), "app.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ipcL.Close() })
	reg := core.NewRegistry()
	localfast.Register(reg)
	envS := core.NewEnv("h")
	envS.Provide(localfast.EnvListener, ipcL)
	envS.SetDialer(&transport.MultiDialer{HostID: "h"})
	envC := core.NewEnv("h")
	envC.SetDialer(&transport.MultiDialer{HostID: "h"})
	srvEp, _ := core.NewEndpoint("srv", spec.Seq(localfast.Node()), core.WithRegistry(reg), core.WithEnv(envS))
	cliEp, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(reg), core.WithEnv(envC))
	u := &unixSplice{net: transport.NewPipeNetwork(), cliEp: cliEp,
		accepted: make(chan struct{}, 1), closed: make(chan struct{}, 1)}
	baseL, _ := u.net.Listen("h", "svc")
	nl, _ := srvEp.Listen(ctx, baseL)
	t.Cleanup(func() { nl.Close() })
	go func() { // one connection at a time, like the churn server's handler
		for {
			c, err := nl.Accept(ctx)
			if err != nil {
				return
			}
			u.accepted <- struct{}{}
			if m, err := c.Recv(ctx); err == nil {
				c.Send(ctx, m)
			}
			c.Close()
			u.closed <- struct{}{}
		}
	}()
	return u
}

// connect dials, negotiates and checks the connection is spliced.
func (u *unixSplice) connect(t *testing.T) core.Conn { return u.connectIn(t, ctxT(t)) }

func (u *unixSplice) connectIn(t *testing.T, ctx context.Context) core.Conn {
	raw, err := u.net.DialFrom(ctx, "h", core.Addr{Net: "pipe", Addr: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := u.cliEp.Connect(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	if conn.RemoteAddr().Net != "unix" {
		t.Fatalf("data path %v, want the unix splice", conn.RemoteAddr())
	}
	return conn
}

// lifecycle is one connection: connect, one echo, both sides closed.
func (u *unixSplice) lifecycle(t *testing.T) { u.echoAndClose(t, ctxT(t), u.connect(t)) }

// echoAndClose echoes one message on conn, closes it and waits until the
// server has closed its side.
func (u *unixSplice) echoAndClose(t *testing.T, ctx context.Context, conn core.Conn) {
	if err := conn.Send(ctx, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if m, err := conn.Recv(ctx); err != nil || string(m) != "ping" {
		t.Fatalf("echo = %q, %v", m, err)
	}
	conn.Close()
	<-u.accepted
	<-u.closed
}

// goroutinesIn counts the goroutines whose stack holds frame.
func goroutinesIn(frame string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, frame) {
			n++
		}
	}
	return n
}

// TestSplicedClientAddsNoGoroutine: a spliced connection's network leg
// is drained by the server alone. The client has nothing to read there
// after the ServerHello, and a drain goroutine per client connection was
// a goroutine, a context and a channel for nothing. With both sides
// spliced, one goroutine runs for the connection: the server's drain.
func TestSplicedClientAddsNoGoroutine(t *testing.T) {
	u := newUnixSplice(t)
	u.lifecycle(t) // starts the server's IPC accept loop
	conn := u.connect(t)
	<-u.accepted
	if n := goroutinesIn("localfast.(*splicedConn)"); n != 1 {
		t.Errorf("%d goroutines run for one spliced connection, want 1: the server's drain", n)
	}
	ctx := ctxT(t)
	if err := conn.Send(ctx, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	<-u.closed
}

// TestSplicedCloseJoinsDrain: when the server's spliced connection has
// closed, its drain goroutine has left the network leg — Close joins
// what it started — and the goroutine count is back where it was before
// the connection. Run under -race -count=20 in CI.
func TestSplicedCloseJoinsDrain(t *testing.T) {
	u := newUnixSplice(t)
	u.lifecycle(t)
	// The runner goroutine of the test before this one (-count) can still
	// be on its way out: take the lowest count over a few milliseconds.
	before := runtime.NumGoroutine()
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		before = min(before, runtime.NumGoroutine())
	}
	for i := 0; i < 5; i++ {
		u.lifecycle(t) // returns once the server's Close has returned
		if n := goroutinesIn("localfast.(*splicedConn).recvOrig"); n != 0 {
			t.Fatalf("lifecycle %d: %d drains still reading after Close returned", i, n)
		}
	}
	// Exited goroutines leave the count a moment after their last frame.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("%d goroutines after five closed connections, want the %d before them", got, before)
	}
}

// TestSpliceLifecycleAllocBudget bounds one spliced lifecycle — dial over
// the pipe network, negotiate, splice onto a unix datagram listener, one
// echo, both sides closed — both endpoints together. It measured 165
// objects with the net package addressing every unix datagram, a drain
// goroutine on the client, a teardown timeout per Close and trace
// details formatted as they were recorded, 124 while the close notice
// went under a context.WithTimeout, and 119 while the client bound a
// socket file; it measures 118 now.
func TestSpliceLifecycleAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	u := newUnixSplice(t)
	for i := 0; i < 8; i++ { // the accept loop, pools and reactor state
		u.lifecycle(t)
	}
	const budget = 130
	if avg := testing.AllocsPerRun(100, func() { u.lifecycle(t) }); avg > budget {
		t.Fatalf("a spliced lifecycle allocates %.0f objects, budget is %d", avg, budget)
	}
}

// TestSpliceRetainsNoTimer: once both sides of a spliced connection have
// closed, the lifecycle leaves nothing live. The server bounds its wait
// for the client's IPC dial with a 5 s timer. As a time.After, that
// timer and its channel stayed in the runtime's timer heap until they
// fired, because under the module's go 1.22 line returning from the
// select does not free them: about 3 objects per lifecycle, and a heap
// of thousands that every timer-heap pass walked under connect_churn.
// The stopped timer leaves well under one.
func TestSpliceRetainsNoTimer(t *testing.T) {
	u := newUnixSplice(t)
	// One context for the whole loop: ctxT per lifecycle would keep each
	// context alive through t.Cleanup until the test ends.
	ctx := ctxT(t)
	lifecycle := func() { u.echoAndClose(t, ctx, u.connectIn(t, ctx)) }
	for i := 0; i < 50; i++ { // the accept loop, pools and reactor state
		lifecycle()
	}
	const n = 500
	before := liveHeapObjects()
	for i := 0; i < n; i++ {
		lifecycle()
	}
	retained := float64(int64(liveHeapObjects())-int64(before)) / n
	// The time.After wait retained 3.1–3.2 objects per lifecycle, the
	// stopped timer −0.1 to +0.2.
	const bound = 1.5
	if retained > bound {
		t.Fatalf("a closed spliced lifecycle leaves %.2f heap objects live, want at most %.1f: is a timer on the set-up path left to fire?", retained, bound)
	}
	t.Logf("%.2f heap objects retained per lifecycle", retained)
}

// liveHeapObjects counts the heap's objects after two full collections,
// the second emptying the sync.Pool victim caches the first filled.
func liveHeapObjects() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/objects:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
