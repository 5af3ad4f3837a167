package core_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/localfast"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/transport"
)

// resumeRig is a localfast server and client on one host: negotiation
// over a pipe network, data over a unix datagram socket. Each endpoint
// has its own registry and telemetry, and the server a discovery client
// whose answer a test can change.
type resumeRig struct {
	net        *transport.PipeNetwork
	ipcL       core.Listener
	regS, regC *core.Registry
	srv, cli   *core.Endpoint
	telS, telC *telemetry.Registry
	disc       *answerDiscovery
	nl         core.Listener
	// baseAccepts counts the connections the server's base (pipe)
	// listener handed to the negotiated listener.
	baseAccepts atomic.Int64
	// wrap, when set, decorates each raw connection the client dials.
	wrap func(core.Conn) core.Conn
}

func newResumeRig(t *testing.T) *resumeRig {
	t.Helper()
	r := &resumeRig{
		net:  transport.NewPipeNetwork(),
		regS: core.NewRegistry(), regC: core.NewRegistry(),
		telS: telemetry.New(), telC: telemetry.New(),
		disc: &answerDiscovery{},
	}
	ipcL, err := transport.ListenUnix("h", filepath.Join(t.TempDir(), "app.sock"))
	if err != nil {
		t.Fatal(err)
	}
	r.ipcL = ipcL
	t.Cleanup(func() { ipcL.Close() })
	localfast.Register(r.regS)
	localfast.Register(r.regC)
	envS := core.NewEnv("h")
	envS.Provide(localfast.EnvListener, ipcL)
	envS.SetDialer(&transport.MultiDialer{HostID: "h"})
	envC := core.NewEnv("h")
	envC.SetDialer(&transport.MultiDialer{HostID: "h"})
	r.srv, _ = core.NewEndpoint("srv", spec.Seq(localfast.Node()), core.WithRegistry(r.regS),
		core.WithEnv(envS), core.WithTelemetry(r.telS), core.WithDiscovery(r.disc))
	r.cli, _ = core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(r.regC),
		core.WithEnv(envC), core.WithTelemetry(r.telC))
	base, err := r.net.Listen("h", "svc")
	if err != nil {
		t.Fatal(err)
	}
	r.nl, err = r.srv.Listen(ctxT(t), &countedListener{Listener: base, n: &r.baseAccepts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.nl.Close() })
	return r
}

// connect dials the server and connects the rig's client.
func (r *resumeRig) connect(t *testing.T) core.Conn {
	t.Helper()
	ctx := ctxT(t)
	raw, err := r.net.DialFrom(ctx, "h", core.Addr{Net: "pipe", Addr: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	if r.wrap != nil {
		raw = r.wrap(raw)
	}
	conn, err := r.cli.Connect(ctx, raw)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	if conn.RemoteAddr().Net != "unix" {
		t.Fatalf("data path %v, want the unix socket", conn.RemoteAddr())
	}
	return conn
}

// lifecycle connects, echoes one message each way and closes both sides.
// It reports whether the client resumed the connection.
func (r *resumeRig) lifecycle(t *testing.T) (resumed bool) {
	t.Helper()
	before := r.counter(core.ResumesCounter)
	accepted := r.acceptOne(t)
	cconn := r.connect(t)
	sconn := <-accepted
	if sconn == nil {
		t.Fatal("the server accepted no connection")
	}
	echoOnce(t, cconn, sconn, "ping")
	cconn.Close()
	sconn.Close()
	return r.counter(core.ResumesCounter) > before
}

// acceptOne accepts one connection in the background; the channel
// carries it, or nil when Accept failed.
func (r *resumeRig) acceptOne(t *testing.T) <-chan core.Conn {
	ctx := ctxT(t)
	ch := make(chan core.Conn, 1)
	go func() {
		c, err := r.nl.Accept(ctx)
		if err != nil {
			c = nil
		}
		ch <- c
	}()
	return ch
}

func (r *resumeRig) counter(name string) uint64 { return r.telC.Counter(name).Value() }

// lastResumeEvent returns the Detail of the newest resume event one
// side's endpoint recorded. A server that rejects a resume records the
// rejection and then the cold handshake; lastResumeEvent returns the
// rejection for both.
func lastResumeEvent(tel *telemetry.Registry) string {
	var details []string
	for _, ev := range tel.Trace().Events() {
		if ev.Kind == telemetry.TraceResume {
			details = append(details, ev.Detail)
		}
	}
	n := len(details)
	if n == 0 {
		return ""
	}
	if n > 1 && details[n-1] == "cold" && strings.HasPrefix(details[n-2], "rejected: ") {
		return details[n-2]
	}
	return details[n-1]
}

// countedListener counts the connections its Listener accepts.
type countedListener struct {
	core.Listener
	n *atomic.Int64
}

func (l *countedListener) Accept(ctx context.Context) (core.Conn, error) {
	c, err := l.Listener.Accept(ctx)
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestResumedConnectLeavesBaseListenerAlone: a resumed Connect closes
// its raw connection unused, and a pipe dial hands its server end to
// the listener only at its first send or receive, so the base listener
// never sees a resumed connection. It used to hand each one over at the
// dial: a turn of the server's accept loop per resumed Connect, and an
// admission that waited for the client to close a pipe it never used.
func TestResumedConnectLeavesBaseListenerAlone(t *testing.T) {
	r := newResumeRig(t)
	r.lifecycle(t) // negotiated on the network leg
	if n := r.baseAccepts.Load(); n != 1 {
		t.Fatalf("the base listener accepted %d connections for one negotiated lifecycle, want 1", n)
	}
	for i := 0; i < 20; i++ {
		if !r.lifecycle(t) {
			t.Fatalf("lifecycle %d was not resumed: %q", i, lastResumeEvent(r.telC))
		}
	}
	if n := r.baseAccepts.Load() - 1; n != 0 {
		t.Errorf("the base listener accepted %d connections for 20 resumed lifecycles, want 0", n)
	}
}

// answerDiscovery answers every query with offers, which a test changes.
type answerDiscovery struct {
	mu     sync.Mutex
	offers []core.ImplOffer
}

func (d *answerDiscovery) set(offers []core.ImplOffer) {
	d.mu.Lock()
	d.offers = offers
	d.mu.Unlock()
}

func (d *answerDiscovery) Query(ctx context.Context, types []string) ([]core.ImplOffer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.offers), nil
}

func (d *answerDiscovery) Claim(ctx context.Context, implName string, res core.Resources) (uint64, error) {
	return 0, nil
}

func (d *answerDiscovery) Release(ctx context.Context, claimID uint64) error { return nil }

// TestResumeAfterFirstConnection: a client's first connection to a
// server is negotiated and leaves it a ticket; every later one is
// resumed, and leaves it the next ticket.
func TestResumeAfterFirstConnection(t *testing.T) {
	r := newResumeRig(t)
	if r.lifecycle(t) {
		t.Fatal("the first connection was resumed")
	}
	if got := lastResumeEvent(r.telC); got != "cold" {
		t.Errorf("client's resume event %q, want cold", got)
	}
	if got := lastResumeEvent(r.telS); got != "cold" {
		t.Errorf("server's resume event %q, want cold: a splice is not a resume", got)
	}
	for i := 0; i < 5; i++ {
		if !r.lifecycle(t) {
			t.Fatalf("connection %d was not resumed: %q", i+2, lastResumeEvent(r.telC))
		}
	}
	if got := lastResumeEvent(r.telS); got != "resumed" {
		t.Errorf("server's resume event %q, want resumed", got)
	}
	if held, issued := core.TicketCounts(r.cli); held != 1 || issued != 0 {
		t.Errorf("client holds %d tickets and issued %d, want 1 and 0", held, issued)
	}
	if held, issued := core.TicketCounts(r.srv); held != 0 || issued != 1 {
		t.Errorf("server holds %d tickets and issued %d, want 0 and 1", held, issued)
	}
	if n := r.counter(core.ResumeRejectedCounter); n != 0 {
		t.Errorf("%d resumes rejected, want 0", n)
	}
}

// wrappedConn is a raw connection behind a wrapper that does not say it
// is direct.
type wrappedConn struct {
	core.Conn
	recvs int
}

func (w *wrappedConn) Recv(ctx context.Context) ([]byte, error) {
	w.recvs++
	return w.Conn.Recv(ctx)
}

// TestResumeNeedsDirectConn: a client that holds a ticket negotiates
// cold, on the wrapper, over a raw connection that is not a
// core.DirectConn, and resumes the next direct one with the ticket it
// holds.
func TestResumeNeedsDirectConn(t *testing.T) {
	r := newResumeRig(t)
	if r.lifecycle(t) {
		t.Fatal("the first connection was resumed")
	}
	var w *wrappedConn
	r.wrap = func(c core.Conn) core.Conn {
		w = &wrappedConn{Conn: c}
		return w
	}
	if r.lifecycle(t) {
		t.Fatal("a connection over a wrapped raw connection was resumed")
	}
	if got := lastResumeEvent(r.telC); got != "cold" {
		t.Errorf("client's resume event %q, want cold", got)
	}
	if w.recvs == 0 {
		t.Error("the handshake did not go through the wrapper")
	}
	r.wrap = nil
	if !r.lifecycle(t) {
		t.Fatalf("the next direct connection was not resumed: %q", lastResumeEvent(r.telC))
	}
	if n := r.counter(core.ResumeRejectedCounter); n != 0 {
		t.Errorf("%d resumes rejected, want 0", n)
	}
}

// recordingConn is a direct raw connection that records which of its
// methods were called.
type recordingConn struct {
	core.Conn
	mu    sync.Mutex
	calls []string
}

func (r *recordingConn) record(m string) {
	r.mu.Lock()
	r.calls = append(r.calls, m)
	r.mu.Unlock()
}

func (r *recordingConn) Direct() bool { r.record("Direct"); return true }

func (r *recordingConn) Send(ctx context.Context, p []byte) error {
	r.record("Send")
	return r.Conn.Send(ctx, p)
}

func (r *recordingConn) Recv(ctx context.Context) ([]byte, error) {
	r.record("Recv")
	return r.Conn.Recv(ctx)
}

func (r *recordingConn) LocalAddr() core.Addr  { r.record("LocalAddr"); return r.Conn.LocalAddr() }
func (r *recordingConn) RemoteAddr() core.Addr { r.record("RemoteAddr"); return r.Conn.RemoteAddr() }
func (r *recordingConn) Close() error          { r.record("Close"); return r.Conn.Close() }

// TestResumeTouchesOnlyDirectRemoteAddrClose: a resumed Connect asks its
// raw connection whether it is direct and where it goes, and closes it.
// It sends and receives nothing on it and asks for no local address (the
// client's Env names its host), so a transport that opens its socket on
// first use never opens one for a resumed connection.
func TestResumeTouchesOnlyDirectRemoteAddrClose(t *testing.T) {
	r := newResumeRig(t)
	if r.lifecycle(t) {
		t.Fatal("the first connection was resumed")
	}
	var rec *recordingConn
	r.wrap = func(c core.Conn) core.Conn {
		rec = &recordingConn{Conn: c}
		return rec
	}
	if !r.lifecycle(t) {
		t.Fatalf("the connection was not resumed: %q", lastResumeEvent(r.telC))
	}
	allowed := map[string]bool{"Direct": true, "RemoteAddr": true, "Close": true}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, m := range rec.calls {
		if !allowed[m] {
			t.Errorf("a resumed Connect called raw's %s (calls: %v), want only Direct, RemoteAddr and Close", m, rec.calls)
		}
	}
	if !slices.Contains(rec.calls, "Close") {
		t.Errorf("a resumed Connect left raw open (calls: %v)", rec.calls)
	}
}

// TestResumeRejectsReplayedTicket: a ticket is single use. Presented
// again, the server rejects it, and the client gets its connection
// negotiated cold.
func TestResumeRejectsReplayedTicket(t *testing.T) {
	r := newResumeRig(t)
	r.lifecycle(t)
	restore := core.StashHeldTickets(r.cli)
	if !r.lifecycle(t) {
		t.Fatal("the second connection was not resumed")
	}
	restore() // the client holds the ticket it just used
	if r.lifecycle(t) {
		t.Fatal("a replayed ticket resumed a connection")
	}
	if got := lastResumeEvent(r.telS); got != "rejected: unknown ticket" {
		t.Errorf("server's resume event %q, want the replay rejected", got)
	}
	if got := lastResumeEvent(r.telC); got != "cold: resume rejected" {
		t.Errorf("client's resume event %q, want cold after a rejection", got)
	}
	if n := r.counter(core.ResumeRejectedCounter); n != 1 {
		t.Errorf("%d resumes rejected, want 1", n)
	}
	if !r.lifecycle(t) {
		t.Error("the cold connection's ticket did not resume the next one")
	}
}

// TestResumeRejectsExpiredTicket: a ticket presented after its TTL is
// rejected, and the connection is negotiated cold.
func TestResumeRejectsExpiredTicket(t *testing.T) {
	r := newResumeRig(t)
	r.lifecycle(t)
	core.ExpireIssuedTickets(r.srv)
	if r.lifecycle(t) {
		t.Fatal("an expired ticket resumed a connection")
	}
	if got := lastResumeEvent(r.telS); got != "rejected: ticket expired" {
		t.Errorf("server's resume event %q, want the expiry rejected", got)
	}
	if n := r.counter(core.ResumeRejectedCounter); n != 1 {
		t.Errorf("%d resumes rejected, want 1", n)
	}
}

// TestResumeInvalidation: a change to what the decision was made from —
// either side's registry, or the server's discovery answer — sends the
// next connection down the cold path, and the one after resumes again.
func TestResumeInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(r *resumeRig)
		// server and client are the resume events the change leaves.
		server, client string
	}{
		{"client registry", func(r *resumeRig) { r.regC.MustRegister(newMark("mark/fb", 1, 0)) },
			"cold", "cold: registry changed"},
		{"server registry", func(r *resumeRig) { r.regS.MustRegister(newMark("mark/fb", 1, 0)) },
			"rejected: registry changed", "cold: resume rejected"},
		{"discovery answer", func(r *resumeRig) {
			r.disc.set([]core.ImplOffer{{Name: "mark/nic", Type: "mark", Location: core.LocSmartNIC}})
		}, "rejected: discovery changed", "cold: resume rejected"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newResumeRig(t)
			r.lifecycle(t)
			if !r.lifecycle(t) {
				t.Fatal("the second connection was not resumed")
			}
			tc.change(r)
			if r.lifecycle(t) {
				t.Fatal("a connection was resumed after the change")
			}
			if got := lastResumeEvent(r.telS); got != tc.server {
				t.Errorf("server's resume event %q, want %q", got, tc.server)
			}
			if got := lastResumeEvent(r.telC); got != tc.client {
				t.Errorf("client's resume event %q, want %q", got, tc.client)
			}
			if !r.lifecycle(t) {
				t.Error("the connection after the change was not resumed")
			}
		})
	}
}

// TestSpliceRendezvousNoDeadOnArrival: when the server no longer holds
// the ticket its ServerHello carried by the time the client presents it
// on the IPC path — here the listener closed in between, which drops
// the tickets issued through it — Connect fails with ErrNegotiation.
// The server freed its network peer with the hello, so a connection
// returned now would be served by nobody.
func TestSpliceRendezvousNoDeadOnArrival(t *testing.T) {
	r := newResumeRig(t)
	ctx := ctxT(t)
	dialer := &transport.MultiDialer{HostID: "h"}
	r.cli.Env().SetDialer(core.DialerFunc(func(ctx context.Context, addr core.Addr) (core.Conn, error) {
		r.nl.Close()
		return dialer.Dial(ctx, addr)
	}))
	r.acceptOne(t) // starts the listener's loop
	raw, err := r.net.DialFrom(ctx, "h", core.Addr{Net: "pipe", Addr: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := r.cli.Connect(ctx, raw)
	if err == nil {
		conn.Close()
		t.Fatal("Connect returned a connection whose ticket the server had dropped")
	}
	if !errors.Is(err, core.ErrNegotiation) {
		t.Errorf("Connect failed with %v, want an ErrNegotiation", err)
	}
	if got := lastResumeEvent(r.telS); got != "rejected: unknown ticket" {
		t.Errorf("server's resume event %q, want the dropped ticket rejected", got)
	}
	if held, issued := core.TicketCounts(r.srv); held != 0 || issued != 0 {
		t.Errorf("server holds %d tickets and issued %d, want none", held, issued)
	}
}

// TestConnectMultiRefusesSplice: a group's data path is the network
// one, so a group whose peers answer with a rendezvous ticket (two
// same-host localfast servers) fails with ErrNegotiation and closes
// every raw connection, instead of returning a connection no server
// ever accepts.
func TestConnectMultiRefusesSplice(t *testing.T) {
	ctx := ctxT(t)
	r1, r2 := newResumeRig(t), newResumeRig(t)
	var raws []core.Conn
	for _, r := range []*resumeRig{r1, r2} {
		r.acceptOne(t) // starts the listener's loop
		raw, err := r.net.DialFrom(ctx, "h", core.Addr{Net: "pipe", Addr: "svc"})
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	conn, err := r1.cli.ConnectMulti(ctx, raws)
	if err == nil {
		conn.Close()
		t.Fatal("ConnectMulti returned a connection over two spliced peers")
	}
	if !errors.Is(err, core.ErrNegotiation) {
		t.Errorf("ConnectMulti failed with %v, want an ErrNegotiation", err)
	}
	for i, raw := range raws {
		if err := raw.Send(ctx, []byte("x")); err == nil {
			t.Errorf("raw connection %d is open after the failed ConnectMulti", i)
		}
	}
}

// TestNoTicketWithoutResumer: a stack whose innermost node has no
// Resumer gets no ticket, so every connection is negotiated.
func TestNoTicketWithoutResumer(t *testing.T) {
	regC, regS := core.NewRegistry(), core.NewRegistry()
	regC.MustRegister(newMark("mark/fb", 1, 0))
	regS.MustRegister(newMark("mark/fb", 1, 0))
	srv, _ := core.NewEndpoint("srv", spec.Seq(spec.New("mark")), core.WithRegistry(regS))
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(regC))
	cconn, sconn := dialAndServe(t, cli, srv)
	echoOnce(t, cconn, sconn, "no ticket")
	if held, _ := core.TicketCounts(cli); held != 0 {
		t.Errorf("client holds %d tickets, want 0", held)
	}
	if _, issued := core.TicketCounts(srv); issued != 0 {
		t.Errorf("server issued %d tickets, want 0", issued)
	}
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

// settledGoroutines is the lowest goroutine count over a few
// milliseconds: goroutines that have finished leave the count a moment
// after their last frame.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n = min(n, runtime.NumGoroutine())
	}
	return n
}

// waitGoroutines waits up to two seconds for the goroutine count to fall
// to want and returns what it is.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestResumedConnStartsNoGoroutine: a resumed connection runs on the
// unix socket alone on both sides — no network leg to drain, no
// splice to wait for — so holding one open starts no goroutine.
func TestResumedConnStartsNoGoroutine(t *testing.T) {
	r := newResumeRig(t)
	r.lifecycle(t) // the listener's loop, the IPC accept loop, a ticket
	before := settledGoroutines()
	accepted := r.acceptOne(t)
	cconn := r.connect(t)
	sconn := <-accepted
	if sconn == nil {
		t.Fatal("the server accepted no connection")
	}
	echoOnce(t, cconn, sconn, "resumed")
	if got := settledGoroutines(); got > before {
		t.Errorf("%d goroutines with a resumed connection open, want the %d before it", got, before)
	}
	if n := r.counter(core.ResumesCounter); n != 1 {
		t.Fatalf("%d connections resumed, want 1", n)
	}
	cconn.Close()
	sconn.Close()
}

// TestListenerCloseJoinsLoopAndClosesQueued: a negotiated listener's
// Close joins the goroutine its first Accept started, and closes the
// connections it holds that were never accepted — here one resumed.
func TestListenerCloseJoinsLoopAndClosesQueued(t *testing.T) {
	before := settledGoroutines()
	loops := goroutinesIn("(*negotiatedListener).run") // other tests' listeners
	r := newResumeRig(t)
	r.lifecycle(t)
	cconn := r.connect(t) // resumed and queued: nobody accepts it
	defer cconn.Close()
	open := r.telS.Gauge("core/open_conns")
	deadline := time.Now().Add(2 * time.Second)
	for open.Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if open.Value() != 1 {
		t.Fatalf("server holds %d connections, want the resumed one", open.Value())
	}
	r.nl.Close()
	if n := goroutinesIn("(*negotiatedListener).run"); n > loops {
		t.Errorf("%d listener loops running after Close returned, %d before the listener", n, loops)
	}
	if v := open.Value(); v != 0 {
		t.Errorf("%d server connections open after Close, want 0: the queued one was not closed", v)
	}
	r.ipcL.Close() // ends localfast's IPC accept loop
	cconn.Close()
	if got := waitGoroutines(before); got > before {
		t.Errorf("%d goroutines after Close, want the %d before the listener", got, before)
	}
}

// TestStrayDatagramDoesNotWedgeAccept: a datagram that opens no
// handshake — here data from a socket the server never negotiated with,
// as late data after the server freed a peer would — must not stop the
// server from accepting the next client. The server drops that peer at
// its first datagram.
func TestStrayDatagramDoesNotWedgeAccept(t *testing.T) {
	ctx := ctxT(t)
	regS, regC := core.NewRegistry(), core.NewRegistry()
	regS.MustRegister(newMark("mark/fb", 1, 0))
	regC.MustRegister(newMark("mark/fb", 1, 0))
	srv, _ := core.NewEndpoint("srv", spec.Seq(spec.New("mark")), core.WithRegistry(regS))
	cli, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(regC))
	base, err := transport.ListenUDP("h", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := srv.Listen(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	accepted := make(chan core.Conn, 1)
	go func() {
		c, err := nl.Accept(context.Background()) // no deadline, like a server's
		if err == nil {
			accepted <- c
		}
	}()

	stray, err := net.Dial("udp", base.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	if _, err := stray.Write([]byte{0x01, 'x'}); err != nil { // a data-tagged datagram
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it reach the server first

	raw, err := transport.DialUDP("h", base.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	cconn, err := cli.Connect(ctx, raw)
	if err != nil {
		t.Fatalf("connect after a stray datagram: %v", err)
	}
	defer cconn.Close()
	select {
	case sconn := <-accepted:
		defer sconn.Close()
		echoOnce(t, cconn, sconn, "after the stray")
	case <-time.After(5 * time.Second):
		t.Fatal("the server never accepted the client")
	}
}
