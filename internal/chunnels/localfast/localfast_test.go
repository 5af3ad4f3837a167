package localfast_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/chunnels/localfast"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
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
	// The accept loop and the rendezvous must survive many connections
	// (the Figure 3 experiment runs 10000), over an IPC listener that
	// hands a connection over before its first message arrives (pipe)
	// and one that hands it over with that message queued (a unix
	// datagram socket).
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
// network (or, from newUnixSpliceOver, any base listener and dial),
// spliced onto a real unix datagram IPC listener. The server
// echoes one message per connection and closes it, as connect_churn's
// does. It signals accepted when it holds a spliced connection, and
// closed when it has closed it. cliEp resumes every connection after its
// first; a client from newClient holds no ticket, so its connection is
// negotiated and spliced.
type unixSplice struct {
	dial             func(ctx context.Context) (core.Conn, error)
	reg              *core.Registry
	cliEp            *core.Endpoint
	newClient        func() *core.Endpoint
	accepted, closed chan struct{}
}

func newUnixSplice(t *testing.T) *unixSplice {
	t.Helper()
	pipes := transport.NewPipeNetwork()
	baseL, err := pipes.Listen("h", "svc")
	if err != nil {
		t.Fatal(err)
	}
	return newUnixSpliceOver(t, baseL, func(ctx context.Context) (core.Conn, error) {
		return pipes.DialFrom(ctx, "h", core.Addr{Net: "pipe", Addr: "svc"})
	})
}

// newUnixSpliceOver builds a unixSplice whose server listens on baseL and
// whose clients dial it with dial.
func newUnixSpliceOver(t *testing.T, baseL core.Listener, dial func(ctx context.Context) (core.Conn, error)) *unixSplice {
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
	newClient := func() *core.Endpoint {
		ep, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(reg), core.WithEnv(envC))
		return ep
	}
	u := &unixSplice{dial: dial, reg: reg, cliEp: newClient(), newClient: newClient,
		accepted: make(chan struct{}, 1), closed: make(chan struct{}, 1)}
	nl, err := srvEp.Listen(ctx, baseL)
	if err != nil {
		t.Fatal(err)
	}
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

// connect dials, connects cli and checks the connection runs on the
// unix socket.
func (u *unixSplice) connect(t *testing.T, cli *core.Endpoint) core.Conn {
	return u.connectIn(t, ctxT(t), cli)
}

func (u *unixSplice) connectIn(t *testing.T, ctx context.Context, cli *core.Endpoint) core.Conn {
	raw, err := u.dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cli.Connect(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	if conn.RemoteAddr().Net != "unix" {
		t.Fatalf("data path %v, want the unix splice", conn.RemoteAddr())
	}
	return conn
}

// lifecycle is one connection of cli: connect, one echo, both sides
// closed.
func (u *unixSplice) lifecycle(t *testing.T, cli *core.Endpoint) {
	u.echoAndClose(t, ctxT(t), u.connect(t, cli))
}

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

// TestSplicedClientAddsNoGoroutine: a cold spliced connection starts
// no goroutine on either side. The server's handshake ends with its
// ServerHello and frees the network peer, so nothing drains a network
// leg, and the client's rendezvous is one round trip on the unix socket
// inside Connect. Run under -race -count=20 in CI. Each connection is a
// new client's, so it is spliced, not resumed.
func TestSplicedClientAddsNoGoroutine(t *testing.T) {
	u := newUnixSplice(t)
	u.lifecycle(t, u.newClient()) // starts the listener's loop and the IPC accept loop
	before := settledGoroutines()
	for i := 0; i < 5; i++ {
		ctx := ctxT(t)
		conn := u.connectIn(t, ctx, u.newClient())
		<-u.accepted
		if got := settledGoroutines(); got > before {
			t.Fatalf("connection %d: %d goroutines with a spliced connection open, want the %d before it", i, got, before)
		}
		u.accepted <- struct{}{} // echoAndClose takes it again
		u.echoAndClose(t, ctx, conn)
	}
}

// TestSplicedCloseJoinsDrain: once both sides have closed a spliced
// connection, the goroutine count is back where it was before it. No
// goroutine drains the network leg any more; the check keeps any
// goroutine a spliced connection's Close would leave behind from
// accumulating. Run under -race -count=20 in CI. Each connection is a
// new client's, so it is spliced, not resumed.
func TestSplicedCloseJoinsDrain(t *testing.T) {
	u := newUnixSplice(t)
	u.lifecycle(t, u.newClient())
	before := settledGoroutines()
	for i := 0; i < 5; i++ {
		u.lifecycle(t, u.newClient()) // returns once the server's Close has returned
	}
	// Exited goroutines leave the count a moment after their last frame.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after five closed connections, want the %d before them", got, before)
	}
}

// settledGoroutines is the lowest goroutine count over a few
// milliseconds: the runner goroutine of the test before this one
// (-count), or one that has just finished, can still be on its way out.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n = min(n, runtime.NumGoroutine())
	}
	return n
}

// TestSplicedStalledClientsDelayNoConnect: a client that takes its
// ServerHello and never dials the IPC path holds nothing of the
// server's, because the server's handshake ended with that hello. With
// four such clients, a fifth client's cold Connect finishes within one
// hello attempt (250 ms). While the server's handshake waited for the
// client's IPC dial, each stalled client held the listener's serial
// loop for up to 2 s, and the fifth client failed. The stalled clients'
// own Connects fail with ErrNegotiation rather than return a
// connection.
func TestSplicedStalledClientsDelayNoConnect(t *testing.T) {
	u := newUnixSplice(t)
	u.lifecycle(t, u.newClient())
	ctx := ctxT(t)
	env := core.NewEnv("h")
	env.SetDialer(core.DialerFunc(func(ctx context.Context, addr core.Addr) (core.Conn, error) {
		return nil, errors.New("this client never dials the IPC path")
	}))
	const stalledClients = 4
	stalled := make(chan error, stalledClients)
	for i := 0; i < stalledClients; i++ {
		ep, _ := core.NewEndpoint("stalled", spec.Seq(), core.WithRegistry(u.reg), core.WithEnv(env))
		go func() {
			raw, err := u.dial(ctx)
			if err == nil {
				var conn core.Conn
				if conn, err = ep.Connect(ctx, raw); err == nil {
					conn.Close()
				}
			}
			stalled <- err
		}()
	}
	errs := []error{<-stalled} // the server has sent a ServerHello
	start := time.Now()
	conn := u.connect(t, u.newClient())
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("a cold Connect behind %d stalled clients took %v, want at most one hello attempt (250ms)", stalledClients, d)
	}
	u.echoAndClose(t, ctx, conn)
	for len(errs) < stalledClients {
		errs = append(errs, <-stalled)
	}
	for _, err := range errs {
		if !errors.Is(err, core.ErrNegotiation) {
			t.Errorf("a stalled client's Connect returned %v, want an ErrNegotiation", err)
		}
	}
}

// TestSpliceLifecycleAllocBudget bounds one spliced lifecycle — dial over
// the pipe network, negotiate, splice onto a unix datagram listener, one
// echo, both sides closed — both endpoints together. It measured 165
// objects with the net package addressing every unix datagram, a drain
// goroutine on the client, a teardown timeout per Close and trace
// details formatted as they were recorded, 124 while the close notice
// went under a context.WithTimeout, 119 while the client bound a socket
// file, 118 before connections were resumed, and 126 while the server
// waited for a splice token and drained the network leg (114–115 since,
// and 118 since both sides run the connection on a lease and the answer
// names its ticket). It read 100 once a connection's lease, base
// wrapper and bookkeeping lived in its one managedConn, the resume
// messages went in pooled Bufs, and a reactor peer was three objects,
// 97 once the wait for the rendezvous answer armed no timer context,
// and reads 98 since the hello's wait is bounded the same way (over a
// pipe its receive asks for Done at once, and the bound then makes a
// context.WithDeadline: one object more than the context.WithTimeout it
// replaced). Each lifecycle is a new client's, made before the count, so
// none is resumed.
func TestSpliceLifecycleAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	u := newUnixSplice(t)
	for i := 0; i < 8; i++ { // the accept loop, pools and reactor state
		u.lifecycle(t, u.newClient())
	}
	const runs = 100
	clients := make([]*core.Endpoint, runs+1) // AllocsPerRun runs once more to warm up
	for i := range clients {
		clients[i] = u.newClient()
	}
	next := 0
	budget := lifecycleBudget(103, 111)
	avg := testing.AllocsPerRun(runs, func() {
		u.lifecycle(t, clients[next])
		next++
	})
	if avg > float64(budget) {
		t.Fatalf("a spliced lifecycle allocates %.0f objects, budget is %d", avg, budget)
	}
	t.Logf("%.1f objects per spliced lifecycle", avg)
}

// TestResumeLifecycleAllocBudget bounds one resumed lifecycle — the
// ticket presented on the unix socket, the stack rebuilt on both sides
// from the one negotiated before, one echo, both sides closed — both
// endpoints together. One client makes every connection, so each after
// its first is resumed. It measured 81 objects while each resume dialed
// the unix socket it ran on, 66 since the client keeps it (63 later),
// 38 once each side's connection was one allocation, the resume
// messages and tickets allocated nothing and a pipe dial closed unused
// never reached the base listener, and 29 since the server parks its
// reactor peer with the next ticket (three objects it made anew each
// lifecycle) and the client's wait for the answer arms no timer
// context (six).
func TestResumeLifecycleAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	u := newUnixSplice(t)
	for i := 0; i < 8; i++ { // the first is negotiated; pools and reactor state
		u.lifecycle(t, u.cliEp)
	}
	budget := lifecycleBudget(34, 44)
	avg := testing.AllocsPerRun(100, func() { u.lifecycle(t, u.cliEp) })
	if avg > float64(budget) {
		t.Fatalf("a resumed lifecycle allocates %.0f objects, budget is %d", avg, budget)
	}
	t.Logf("%.1f objects per resumed lifecycle", avg)
}

// lifecycleBudget picks a lifecycle's allocation budget for the unix
// listener's receive loop: fast for linux amd64 and arm64's, which reads
// a peer's address in place, portable for the net package's ReadFrom
// elsewhere, which makes a net.Addr and a name for every datagram (it
// reads 106 spliced and 39 resumed there; 108 and 48 before the server
// parked its peer, 125 and 71 before a resumed connection was one
// allocation per side).
func lifecycleBudget(fast, portable int) int {
	if runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") {
		return fast
	}
	return portable
}

// TestSpliceRetainsNoTimer: once both sides of a spliced or resumed
// connection have closed, nothing still references the lifecycle's
// set-up state (a parked goroutine, a map entry, a registered callback):
// it leaves nothing live on the heap. The name is from the server's old
// wait for a splice token, a 5 s time.After that pre-1.23 timers kept
// heaped with its channel until it fired, about 3 objects per lifecycle.
//
// A lifecycle keeps one thing on purpose: the next ticket the server
// issues with its answer, held for 30 s. The server's store keeps the
// last 1024 puts, and each lifecycle puts as many as it takes or
// overwrites, so the spliced case, a new client per lifecycle, fills
// the store before it counts: each lifecycle it counts then replaces as
// much as it keeps.
//
// The count lets finalizers run between its collections
// (liveHeapObjects), so what only a finalizer frees, such as the unclosed
// socket of an endpoint the test dropped, is not counted: a lifecycle
// that left sockets for finalizers to close would pass here.
// TestResumedLifecyclesOpenNoSocket counts sockets, and this test
// counts heap objects.
func TestSpliceRetainsNoTimer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		warmup int // the accept loop, pools and reactor state
		client func(u *unixSplice) *core.Endpoint
	}{
		{"spliced", 1100, func(u *unixSplice) *core.Endpoint { return u.newClient() }},
		{"resumed", 50, func(u *unixSplice) *core.Endpoint { return u.cliEp }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := newUnixSplice(t)
			// One context for the whole loop: ctxT per lifecycle would
			// keep each context alive through t.Cleanup until the test
			// ends.
			ctx := ctxT(t)
			lifecycle := func() { u.echoAndClose(t, ctx, u.connectIn(t, ctx, tc.client(u))) }
			for i := 0; i < tc.warmup; i++ {
				lifecycle()
			}
			const n = 500
			before := liveHeapObjects()
			for i := 0; i < n; i++ {
				lifecycle()
			}
			retained := float64(int64(liveHeapObjects())-int64(before)) / n
			// A lifecycle reads about 0.1; the pre-1.23 time.After wait
			// read 3.1–3.2.
			const bound = 1.5
			if retained > bound {
				t.Fatalf("a closed %s lifecycle leaves %.2f heap objects live, want at most %.1f: does something still reference its set-up state?", tc.name, retained, bound)
			}
			t.Logf("%.2f heap objects retained per lifecycle", retained)
		})
	}
}

// TestResumedConnectOpensNoSocket: over a UDP base listener, a resumed
// Connect makes no socket. The raw connection it is handed, fresh from
// transport.DialUDP each lifecycle, carries nothing and is closed unused,
// so it never opens one; and the unix socket the client's previous
// connection ran on is kept with the ticket, which the client presents on
// it, so nothing is dialed. The test counts the process's open files
// (/proc/self/fd) at the Resumer's dial, if there is one, once the
// connection is up, and once both sides have closed it; and once the
// held ticket is dropped (a registry change sends the next Connect down
// the cold path), the kept socket's file is gone. While each resumed
// Connect dialed the unix socket it ran on, it held one new file from
// that dial until it closed; while DialUDP opened its socket at the dial,
// two.
func TestResumedConnectOpensNoSocket(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts open files in /proc/self/fd, which is linux's")
	}
	udpL, err := transport.ListenUDP("h", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u := newUnixSpliceOver(t, udpL, func(context.Context) (core.Conn, error) {
		return transport.DialUDP("h", udpL.Addr().Addr)
	})
	var atDial map[string]bool
	d := &transport.MultiDialer{HostID: "h"}
	env := core.NewEnv("h")
	env.SetDialer(core.DialerFunc(func(ctx context.Context, addr core.Addr) (core.Conn, error) {
		c, err := d.Dial(ctx, addr)
		atDial = openFiles(t)
		return c, err
	}))
	tel := telemetry.New()
	reg := core.NewRegistry()
	localfast.Register(reg)
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(reg), core.WithEnv(env), core.WithTelemetry(tel))
	first := openFiles(t)
	u.lifecycle(t, cli) // negotiated over UDP; leaves a ticket and the socket
	ctx := ctxT(t)
	for i := 0; i < 5; i++ {
		resumes := tel.Counter("core/resumes").Value()
		before := openFiles(t)
		atDial = nil
		conn := u.connectIn(t, ctx, cli)
		if tel.Counter("core/resumes").Value() == resumes {
			t.Fatalf("connection %d was not resumed", i)
		}
		if atDial != nil {
			t.Errorf("connection %d: the Resumer dialed, with %d new files open, want no dial", i, newFiles(before, atDial))
		}
		if n := newFiles(before, openFiles(t)); n != 0 {
			t.Errorf("connection %d: %d new files open while connected, want 0", i, n)
		}
		u.echoAndClose(t, ctx, conn)
		if n := newFiles(before, openFiles(t)); n != 0 {
			t.Errorf("connection %d: %d new files open after both sides closed, want 0", i, n)
		}
	}
	var kept []string
	for f := range openFiles(t) {
		if !first[f] {
			kept = append(kept, f)
		}
	}
	if len(kept) != 1 {
		t.Fatalf("%d files open that were not before the first connection, want 1: the socket kept with the ticket", len(kept))
	}
	// A registry change drops the held ticket at the next Connect.
	reg.MustRegister(&base.Impl{ImplInfo: core.ImplInfo{Name: "mark/nop", Type: "mark", Endpoint: spec.EndpointBoth}})
	u.lifecycle(t, cli)
	if openFiles(t)[kept[0]] {
		t.Errorf("%s is still open after the ticket it was kept with was dropped", kept[0])
	}
}

// TestResumedLifecyclesOpenNoSocket: the socket counters agree with the
// file count above, off /proc: 50 resumed lifecycles open and close no
// unix socket, and the server makes no reactor peer for them: each
// request comes back on the peer the server parked with its ticket.
func TestResumedLifecyclesOpenNoSocket(t *testing.T) {
	u := newUnixSplice(t)
	u.lifecycle(t, u.cliEp) // spliced; leaves a ticket and the socket
	reg := telemetry.Default()
	counter := func(name string) uint64 { return reg.Counter("transport/unix/" + name).Value() }
	opened, closed, peers := counter("sockets_opened"), counter("sockets_closed"), counter("peers_opened")
	resumes := reg.Counter("core/resumes").Value()
	const n = 50
	for i := 0; i < n; i++ {
		u.lifecycle(t, u.cliEp)
	}
	if got := reg.Counter("core/resumes").Value() - resumes; got != n {
		t.Fatalf("%d of %d lifecycles resumed", got, n)
	}
	if got := counter("sockets_opened") - opened; got != 0 {
		t.Errorf("%d resumed lifecycles opened %d unix sockets, want 0", n, got)
	}
	if got := counter("sockets_closed") - closed; got != 0 {
		t.Errorf("%d resumed lifecycles closed %d unix sockets, want 0", n, got)
	}
	if got := counter("peers_opened") - peers; got != 0 {
		t.Errorf("%d resumed lifecycles made %d server peers, want 0", n, got)
	}
}

// openFiles lists what the process's file descriptors refer to (a
// socket reads "socket:[inode]"). Keyed by what they refer to rather
// than by number, a new socket is told apart from one that took the
// number of a file another part of the process closed meanwhile.
func openFiles(t *testing.T) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]bool, len(ents))
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil {
			files[target] = true
		}
	}
	return files
}

// newFiles counts the files open in after that were not in before.
func newFiles(before, after map[string]bool) int {
	n := 0
	for f := range after {
		if !before[f] {
			n++
		}
	}
	return n
}

// liveHeapObjects counts the heap's objects after full collections: the
// second empties the sync.Pool victim caches the first filled, and a
// pause after each lets the finalizer goroutine close the sockets of the
// client endpoints a test dropped. What a pending finalizer reaches
// survives the collection that found it garbage, so with two bare
// collections the count read those sockets too, as many as had piled up
// since the last collection of the run: ±0.8 objects per spliced
// lifecycle once the server's parked peers made the heap (and the
// spacing of collections) larger, ±0.03 with the pauses.
func liveHeapObjects() uint64 {
	for i := 0; i < 4; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	s := []metrics.Sample{{Name: "/gc/heap/objects:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
