package core_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/localfast"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
)

// Tests of a negotiated listener's admission rule (DESIGN §10, "No
// listener waits on a peer"): every cold hello and every ticket takes
// one of acceptBacklog places before it is answered, and keeps it until
// Accept takes its connection or the admission fails.

// backlog is the listener's acceptBacklog.
const backlog = 64

// connectResult is how a Connect ended.
type connectResult struct {
	conn core.Conn
	err  error
}

// connectAsync connects ep to the rig's server from host in the
// background.
func (r *resumeRig) connectAsync(ctx context.Context, ep *core.Endpoint, host string) <-chan connectResult {
	done := make(chan connectResult, 1)
	go func() {
		raw, err := r.net.DialFrom(ctx, host, core.Addr{Net: "pipe", Addr: "svc"})
		var conn core.Conn
		if err == nil {
			conn, err = ep.Connect(ctx, raw)
		}
		done <- connectResult{conn, err}
	}()
	return done
}

// hasTrace reports whether tel recorded a trace event whose Detail is
// detail, waiting up to a second for it.
func hasTrace(tel *telemetry.Registry, detail string) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, ev := range tel.Trace().Events() {
			if ev.Detail == detail {
				return true
			}
		}
	}
	return false
}

// TestListenerBacklogRule: with acceptBacklog connections queued and none
// accepted, a further cold Connect waits for room rather than fail: its
// hello is not answered until the application Accepts. A resume
// presented then is rejected ("listener closed or full"), and its client
// goes cold, where it waits for room too and is spliced once there is
// some.
func TestListenerBacklogRule(t *testing.T) {
	r := newResumeRig(t)
	r.lifecycle(t) // the client holds a ticket and keeps its socket
	ctx := ctxT(t)
	// A client on another host gets the network branch: its connections
	// stay on the listener's base transport, each admitted cold.
	regF := core.NewRegistry()
	localfast.Register(regF)
	far, _ := core.NewEndpoint("far", spec.Seq(), core.WithRegistry(regF),
		core.WithEnv(core.NewEnv("far")), core.WithTelemetry(telemetry.New()))
	var conns []core.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < backlog; i++ {
		res := <-r.connectAsync(ctx, far, "far")
		if res.err != nil {
			t.Fatalf("cold connect %d with room in the backlog: %v", i+1, res.err)
		}
		conns = append(conns, res.conn)
	}
	// A client's Connect returns once it has the ServerHello; the server
	// may still be assembling its side.
	open := r.telS.Gauge("core/open_conns")
	for deadline := time.Now().Add(time.Second); open.Value() != backlog && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if v := open.Value(); v != backlog {
		t.Fatalf("the server holds %d connections, want the %d queued", v, backlog)
	}

	next := r.connectAsync(ctx, far, "far")
	time.Sleep(50 * time.Millisecond) // the listener takes up its hello first
	returning := r.connectAsync(ctx, r.cli, "h")
	if !hasTrace(r.telS, "rejected: listener closed or full") {
		t.Fatal("the server did not reject the resume presented at a full backlog")
	}
	time.Sleep(300 * time.Millisecond) // past one hello attempt
	select {
	case res := <-next:
		t.Fatalf("a cold Connect beyond the backlog ended (%v) with nothing accepted", res.err)
	case res := <-returning:
		t.Fatalf("the rejected client's cold Connect ended (%v) with the backlog full and nothing accepted", res.err)
	default:
	}

	for i := 0; i < 2; i++ {
		c, err := r.nl.Accept(ctx)
		if err != nil {
			t.Fatalf("accept %d: %v", i+1, err)
		}
		c.Close()
	}
	var spliced core.Conn
	for _, w := range []struct {
		name string
		ch   <-chan connectResult
	}{{"the next cold", next}, {"the rejected client's cold", returning}} {
		select {
		case res := <-w.ch:
			if res.err != nil {
				t.Fatalf("%s Connect after two Accepts: %v", w.name, res.err)
			}
			conns = append(conns, res.conn)
			spliced = res.conn
		case <-time.After(2 * time.Second):
			t.Fatalf("%s Connect did not finish after two Accepts", w.name)
		}
	}
	if n := r.counter(core.ResumeRejectedCounter); n != 1 {
		t.Errorf("%d resumes rejected on the client, want 1", n)
	}
	if got := spliced.RemoteAddr().Net; got != "unix" {
		t.Errorf("the rejected client's cold connection runs on %q, want the unix splice", got)
	}
	for i := 0; i < backlog; i++ { // what is left queued: 62, the next one and the spliced one
		actx, cancel := context.WithTimeout(ctx, time.Second)
		c, err := r.nl.Accept(actx)
		cancel()
		if err != nil {
			t.Fatalf("accept %d of the %d left queued: %v", i+1, backlog, err)
		}
		c.Close()
	}
}

// stallDiscovery answers every query with nothing. The first stall
// queries wait until release is closed or their context ends.
type stallDiscovery struct {
	stall   int32
	release chan struct{}
	n       atomic.Int32
	waiting atomic.Int32
}

func newStallDiscovery(stall int32) *stallDiscovery {
	return &stallDiscovery{stall: stall, release: make(chan struct{})}
}

func (d *stallDiscovery) Query(ctx context.Context, types []string) ([]core.ImplOffer, error) {
	if d.n.Add(1) <= d.stall {
		d.waiting.Add(1)
		defer d.waiting.Add(-1)
		select {
		case <-d.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, nil
}

func (d *stallDiscovery) Claim(ctx context.Context, implName string, res core.Resources) (uint64, error) {
	return 0, nil
}

func (d *stallDiscovery) Release(ctx context.Context, claimID uint64) error { return nil }

// awaitWaiting waits up to two seconds for n queries to be waiting.
func (d *stallDiscovery) awaitWaiting(t *testing.T, n int32) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); d.waiting.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d discovery queries waiting, want %d", d.waiting.Load(), n)
		}
	}
}

// recordingListener records every base connection it accepts, to tell
// whether each was closed.
type recordingListener struct {
	core.Listener
	mu   sync.Mutex
	raws []*recordedConn
}

type recordedConn struct {
	core.Conn
	closed atomic.Bool
}

func (c *recordedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (l *recordingListener) Accept(ctx context.Context) (core.Conn, error) {
	c, err := l.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	rc := &recordedConn{Conn: c}
	l.mu.Lock()
	l.raws = append(l.raws, rc)
	l.mu.Unlock()
	return rc, nil
}

// stallRig is a server whose stack is one mark chunnel, over a pipe
// network, with a discovery client that stalls.
type stallRig struct {
	net  *transport.PipeNetwork
	base *recordingListener
	srv  *core.Endpoint
	cli  *core.Endpoint
	tel  *telemetry.Registry
	disc *stallDiscovery
	nl   core.Listener
}

func newStallRig(t *testing.T, stall int32) *stallRig {
	t.Helper()
	regS, regC := core.NewRegistry(), core.NewRegistry()
	regS.MustRegister(newMark("mark/fb", 1, 0))
	regC.MustRegister(newMark("mark/fb", 1, 0))
	r := &stallRig{net: transport.NewPipeNetwork(), tel: telemetry.New(), disc: newStallDiscovery(stall)}
	r.srv, _ = core.NewEndpoint("srv", spec.Seq(spec.New("mark")), core.WithRegistry(regS),
		core.WithTelemetry(r.tel), core.WithDiscovery(r.disc))
	r.cli, _ = core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(regC), core.WithTelemetry(telemetry.New()))
	base, err := r.net.Listen("srvhost", "svc")
	if err != nil {
		t.Fatal(err)
	}
	r.base = &recordingListener{Listener: base}
	if r.nl, err = r.srv.Listen(ctxT(t), r.base); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		select {
		case <-r.disc.release:
		default:
			close(r.disc.release)
		}
		r.nl.Close()
	})
	return r
}

// connectAsync connects the rig's client in the background.
func (r *stallRig) connectAsync(ctx context.Context) <-chan connectResult {
	done := make(chan connectResult, 1)
	go func() {
		raw, err := r.net.DialFrom(ctx, "clihost", r.base.Addr())
		var conn core.Conn
		if err == nil {
			conn, err = r.cli.Connect(ctx, raw)
		}
		done <- connectResult{conn, err}
	}()
	return done
}

// acceptAll accepts in the background until Accept fails. The channel
// carries each connection, and is closed then.
func (r *stallRig) acceptAll(ctx context.Context) <-chan core.Conn {
	accepted := make(chan core.Conn, 8)
	go func() {
		defer close(accepted)
		for {
			c, err := r.nl.Accept(ctx)
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	return accepted
}

// TestStalledDiscoveryDelaysOnlyItsClient: a discovery answer that does
// not come holds the one cold admission that asked for it. Another
// client's cold Connect finishes meanwhile, and the stalled client
// finishes once the answer comes.
func TestStalledDiscoveryDelaysOnlyItsClient(t *testing.T) {
	r := newStallRig(t, 1)
	ctx := ctxT(t)
	accepted := r.acceptAll(ctx)
	stalled := r.connectAsync(ctx)
	r.disc.awaitWaiting(t, 1)

	start := time.Now()
	b := <-r.connectAsync(ctx)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("a cold Connect behind a stalled discovery query took %v, want at most 100ms", d)
	}
	if b.err != nil {
		t.Fatalf("connect behind a stalled query: %v", b.err)
	}
	defer b.conn.Close()
	sb := <-accepted
	defer sb.Close()
	echoOnce(t, b.conn, sb, "not behind the stalled one")

	close(r.disc.release)
	a := <-stalled
	if a.err != nil {
		t.Fatalf("the stalled client's Connect after its answer came: %v", a.err)
	}
	defer a.conn.Close()
	sa := <-accepted
	defer sa.Close()
	echoOnce(t, a.conn, sa, "answered")
}

// TestListenerCloseJoinsColdAdmissions: Close ends the cold admissions
// held in a discovery query that does not answer, and returns only once
// each has closed its base connection; none of the listener's goroutines
// outlives it, and it leaves no connection open.
func TestListenerCloseJoinsColdAdmissions(t *testing.T) {
	const admissions = 3
	r := newStallRig(t, admissions)
	ctx := ctxT(t)
	accepted := make(chan error, 1)
	running := testutil.Track(ctx, func() {
		go func() {
			_, err := r.nl.Accept(ctx)
			accepted <- err
		}()
	})
	var clients []<-chan connectResult
	for i := 0; i < admissions; i++ {
		clients = append(clients, r.connectAsync(ctx))
	}
	r.disc.awaitWaiting(t, admissions)

	r.nl.Close()
	r.base.mu.Lock()
	raws := r.base.raws
	r.base.mu.Unlock()
	if len(raws) != admissions {
		t.Fatalf("the listener accepted %d base connections, want %d", len(raws), admissions)
	}
	for i, raw := range raws {
		if !raw.closed.Load() {
			t.Errorf("base connection %d still open when Close returned", i)
		}
	}
	if err := <-accepted; !errors.Is(err, core.ErrClosed) {
		t.Errorf("Accept returned %v at Close, want ErrClosed", err)
	}
	if n := running("negotiatedListener"); n != 0 {
		t.Errorf("%d of the listener's goroutines running after Close", n)
	}
	if v := r.tel.Gauge("core/open_conns").Value(); v != 0 {
		t.Errorf("%d server connections open after Close, want 0", v)
	}
	for _, c := range clients {
		if res := <-c; res.err == nil {
			res.conn.Close()
			t.Error("a client held in a query Close ended was connected")
		}
	}
}

// TestListenerCloseWaitsForColdAdmission: a cold connection whose
// ServerHello has gone out but which is not yet queued holds the
// listener's Close until it is closed.
func TestListenerCloseWaitsForColdAdmission(t *testing.T) {
	r := newStallRig(t, 0)
	ctx := ctxT(t)
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	restore := core.HoldDeliver(func() {
		once.Do(func() { close(held) })
		<-release
	})
	defer restore()
	accepted := r.acceptAll(ctx)
	connected := r.connectAsync(ctx)
	select {
	case <-held:
	case <-time.After(2 * time.Second):
		t.Fatal("no cold admission reached its queueing")
	}
	closed := make(chan struct{})
	go func() {
		r.nl.Close()
		close(closed)
	}()
	select {
	case <-closed:
		close(release)
		t.Fatal("the listener's Close returned while a cold connection it was admitting was still open")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	if v := r.tel.Gauge("core/open_conns").Value(); v != 0 {
		t.Errorf("%d server connections open after Close, want 0", v)
	}
	if c, ok := <-accepted; ok {
		c.Close()
		t.Error("the listener returned a connection it admitted after Close")
	}
	if res := <-connected; res.err == nil {
		res.conn.Close()
	}
}
