package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/bertha/transport"
	"github.com/bertha-net/bertha/internal/chunnels/localfast"
	"github.com/bertha-net/bertha/internal/discovery"
)

const (
	// churnEchoes is the paper's Fig. 3 shape: three requests per
	// connection.
	churnEchoes = 3
	churnBytes  = 128
	churnHost   = "box"
	// churnRing is the per-connection receive ring: a connection never
	// has more than two messages in flight.
	churnRing = 16
	// firstEchoWait is how long a client waits for a new connection's
	// first echo before it abandons the connection and dials again. At
	// seed ~2 % of spliced connections are dead on arrival (the server's
	// wrap loses a race for the splice token and drops its side while the
	// client believes it is connected), and an application can only find
	// out by timing out. 5 ms is the p99.9 of a healthy first echo here.
	firstEchoWait = 5 * time.Millisecond
)

// errDeadOnArrival marks a connection whose first echo never came.
var errDeadOnArrival = errors.New("churn: no first echo")

// churnServer is the Fig. 3/4 server: local_or_remote() over a UDP
// listener, an in-process discovery service, and the unix listener the
// IPC branch splices onto.
type churnServer struct {
	addr string
	echo *echoServer
	ipc  bertha.Listener
}

// startChurnServer serves connections that each carry churnEchoes
// echoes. The server closes a connection after its last echo: a spliced
// connection's teardown notice travels on the UDP leg, where only the
// chunnel's drain loop sees it, so a handler that waited for the peer to
// leave would hold a goroutine and a 16 KB ring per connection forever.
func startChurnServer(dir string, wrapDisc func(bertha.DiscoveryClient) bertha.DiscoveryClient) (*churnServer, error) {
	reg := bertha.NewRegistry()
	bertha.RegisterStandard(reg)
	ipc, err := transport.ListenUnix(churnHost, filepath.Join(dir, "ipc.sock"))
	if err != nil {
		return nil, err
	}
	// One reactor goroutine on the IPC socket: with two, a client's
	// first message can overtake its splice token, and the token can be
	// pushed into a ring that is being closed, which parks the server's
	// (serial) accept loop for localfast's 5 s splice timeout. Small
	// rings on both sockets: a reactor listener that is served through
	// Accept keeps every connection it ever woke reachable from its
	// ready queue, so each lifecycle would leave two 16 KB rings behind
	// (1.7 GB in a 20 s run). README, "connect_churn at seed", has the
	// numbers for both.
	if err := configureReactor(ipc, bertha.ReactorConfig{Shards: 1, RingSize: churnRing}); err != nil {
		ipc.Close()
		return nil, err
	}
	env := bertha.NewEnv(churnHost)
	env.Provide(localfast.EnvListener, ipc)
	env.SetDialer(&transport.MultiDialer{HostID: churnHost})
	var disc bertha.DiscoveryClient = discovery.NewService()
	if wrapDisc != nil {
		disc = wrapDisc(disc)
	}
	ep, err := bertha.New("churn-srv", bertha.Wrap(bertha.LocalOrRemote()),
		bertha.WithRegistry(reg), bertha.WithEnv(env), bertha.WithDiscovery(disc),
		bertha.WithReactor(bertha.ReactorConfig{RingSize: churnRing}))
	if err != nil {
		ipc.Close()
		return nil, err
	}
	base, err := transport.ListenUDP(churnHost, "127.0.0.1:0")
	if err != nil {
		ipc.Close()
		return nil, err
	}
	nl, err := ep.Listen(context.Background(), base)
	if err != nil {
		base.Close()
		ipc.Close()
		return nil, err
	}
	return &churnServer{addr: base.Addr().Addr, echo: serveEcho(nl, churnEchoes), ipc: ipc}, nil
}

// configureReactor sets up the reactor of a listener that no endpoint
// wraps (an endpoint's own takes bertha.WithReactor), before the first
// Accept starts it.
func configureReactor(l bertha.Listener, cfg bertha.ReactorConfig) error {
	rc, ok := l.(interface {
		ConfigureReactor(bertha.ReactorConfig) error
	})
	if !ok {
		return nil
	}
	return rc.ConfigureReactor(cfg)
}

func (s *churnServer) close() {
	s.echo.close()
	s.ipc.Close()
}

// churnClient runs whole connection lifecycles: dial, negotiate (which
// splices onto the unix socket), churnEchoes echoes, close.
type churnClient struct {
	ep      *bertha.Endpoint
	host    string
	addr    string
	payload []byte
	// wrapRaw lets the traced run decorate each dialed connection.
	wrapRaw func(op uint64, raw bertha.Conn) bertha.Conn
}

// newChurnClient builds a client endpoint on host: churnHost shares the
// server's host and is spliced, any other host stays on UDP.
func newChurnClient(name, host, addr string, rng *rand.Rand) (*churnClient, error) {
	reg := bertha.NewRegistry()
	bertha.RegisterStandard(reg)
	env := bertha.NewEnv(host)
	env.SetDialer(&transport.MultiDialer{HostID: host})
	ep, err := bertha.New(name, bertha.Wrap(), bertha.WithRegistry(reg), bertha.WithEnv(env))
	if err != nil {
		return nil, err
	}
	c := &churnClient{ep: ep, host: host, addr: addr, payload: make([]byte, churnBytes)}
	rng.Read(c.payload)
	return c, nil
}

// churnTimes are one connection lifecycle's phase boundaries.
type churnTimes struct {
	start, dialed, connected, first, echoed, closed time.Time
}

// lifecycle is one try of an op: connection lifecycles until one carries
// its echoes, all inside ctx's deadline. setup is the dial+negotiate
// part of the lifecycle that worked, redials the connections abandoned
// first.
func (c *churnClient) lifecycle(ctx context.Context) (setup time.Duration, redials int, err error) {
	for {
		t, err := c.attempt(ctx, 0)
		if err != errDeadOnArrival {
			return t.connected.Sub(t.start), redials, err
		}
		redials++
	}
}

// attempt is one connection lifecycle. op labels the raw connection's
// spans in the traced run.
func (c *churnClient) attempt(ctx context.Context, op uint64) (t churnTimes, err error) {
	t.start = time.Now()
	raw, err := transport.DialUDP(c.host, c.addr)
	if err != nil {
		return t, err
	}
	t.dialed = time.Now()
	if c.wrapRaw != nil {
		raw = c.wrapRaw(op, raw)
	}
	conn, err := c.ep.Connect(ctx, raw) // closes raw when it fails
	if err != nil {
		return t, err
	}
	t.connected = time.Now()
	defer func() {
		conn.Close()
		t.closed = time.Now()
	}()
	if net := conn.RemoteAddr().Net; net != "unix" {
		return t, fmt.Errorf("churn: data path is %q, want the unix splice", net)
	}
	ec := echoClient{conn: conn, payloads: [][]byte{c.payload}}
	first, cancel := context.WithTimeout(ctx, firstEchoWait)
	err = ec.roundTrip(first)
	cancel()
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			return t, errDeadOnArrival
		}
		return t, err
	}
	t.first = time.Now()
	for i := 1; i < churnEchoes; i++ {
		if err := ec.roundTrip(ctx); err != nil {
			return t, err
		}
	}
	t.echoed = time.Now()
	return t, nil
}

// op is one operation: lifecycle, started over whenever opDeadline passes
// or an error ends it, failed after opTries tries.
func (c *churnClient) op() (setup time.Duration, retries, redials int, err error) {
	retries, err = retryOp(func(ctx context.Context) error {
		s, n, err := c.lifecycle(ctx)
		setup, redials = s, redials+n
		return err
	})
	return setup, retries, redials, err
}

func (c *churnClient) run(stop *atomic.Bool, rec *recorder) {
	for !stop.Load() {
		t0 := time.Now()
		setup, retries, redials, err := c.op()
		d := time.Since(t0)
		rec.retry(retries)
		rec.redial(redials)
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.ok(d)
		rec.connSetup(setup)
	}
}

func setupChurn(cfg runConfig) (*world, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	srv, err := startChurnServer(cfg.sockDir, nil)
	if err != nil {
		return nil, err
	}
	w := &world{close: srv.close}
	for i := 0; i < numConns; i++ {
		c, err := newChurnClient(fmt.Sprintf("churn-cli-%d", i), churnHost, srv.addr, rng)
		if err != nil {
			srv.close()
			return nil, err
		}
		w.clients = append(w.clients, c)
	}
	// One lifecycle proves the path before anything is timed.
	if _, _, _, err := w.clients[0].(*churnClient).op(); err != nil {
		srv.close()
		return nil, fmt.Errorf("churn: first lifecycle: %w", err)
	}
	return w, nil
}
