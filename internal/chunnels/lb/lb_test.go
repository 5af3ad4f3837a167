package lb_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/lb"
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

// backends starts n echo backends that tag replies with their index.
func backends(t *testing.T, pn *transport.PipeNetwork, n int) []core.Addr {
	t.Helper()
	ctx := ctxT(t)
	var addrs []core.Addr
	for i := 0; i < n; i++ {
		l, err := pn.Listen("srvhost", fmt.Sprintf("backend%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		addrs = append(addrs, l.Addr())
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
	}
	return addrs
}

func dialLB(t *testing.T, pn *transport.PipeNetwork, addrs []core.Addr, regC, regS *core.Registry, policy core.Policy) core.Conn {
	t.Helper()
	ctx := ctxT(t)
	envS := core.NewEnv("srvhost")
	envS.SetDialer(&transport.MultiDialer{HostID: "srvhost", Pipe: pn})
	envC := core.NewEnv("clihost")
	envC.SetDialer(&transport.MultiDialer{HostID: "clihost", Pipe: pn})

	opts := []core.Option{core.WithRegistry(regS), core.WithEnv(envS)}
	if policy != nil {
		opts = append(opts, core.WithPolicy(policy))
	}
	srvEp, _ := core.NewEndpoint("service", spec.Seq(lb.Node(addrs)), opts...)
	cliEp, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(regC), core.WithEnv(envC))

	svcName := fmt.Sprintf("lbsvc-%p", regC)
	baseL, _ := pn.Listen("srvhost", svcName)
	t.Cleanup(func() { baseL.Close() })
	nl, err := srvEp.Listen(ctx, baseL)
	if err != nil {
		t.Fatal(err)
	}
	go nl.Accept(ctx)
	raw, _ := pn.DialFrom(ctx, "clihost", core.Addr{Net: "pipe", Addr: svcName})
	conn, err := cliEp.Connect(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func spread(t *testing.T, conn core.Conn, n, nbackends int) map[byte]int {
	t.Helper()
	ctx := ctxT(t)
	counts := map[byte]int{}
	for i := 0; i < n; i++ {
		req := []byte(fmt.Sprintf("r%03d", i))
		if err := conn.Send(ctx, req); err != nil {
			t.Fatal(err)
		}
		m, err := conn.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		counts[m[len(m)-1]]++
	}
	if len(counts) != nbackends {
		t.Errorf("used %d of %d backends: %v", len(counts), nbackends, counts)
	}
	return counts
}

func TestClientSideBalancing(t *testing.T) {
	pn := transport.NewPipeNetwork()
	addrs := backends(t, pn, 3)
	regC, regS := core.NewRegistry(), core.NewRegistry()
	lb.RegisterClient(regC)
	lb.RegisterServer(regS)
	conn := dialLB(t, pn, addrs, regC, regS, nil) // client impl preferred
	counts := spread(t, conn, 90, 3)
	for b, c := range counts {
		if c != 30 {
			t.Errorf("backend %d handled %d, want 30 (round robin)", b, c)
		}
	}
}

func TestServerSideProxyBalancing(t *testing.T) {
	pn := transport.NewPipeNetwork()
	addrs := backends(t, pn, 3)
	regC, regS := core.NewRegistry(), core.NewRegistry()
	lb.RegisterServer(regS)
	conn := dialLB(t, pn, addrs, regC, regS, core.PreferImpl(lb.ImplServer))
	spread(t, conn, 90, 3)
}

func TestHybridBothModalitiesAtOnce(t *testing.T) {
	// One deployment, two clients: one balances client-side, the other
	// through the server proxy — the hybrid the paper says current
	// interfaces make hard.
	pn := transport.NewPipeNetwork()
	addrs := backends(t, pn, 2)
	regS := core.NewRegistry()
	lb.RegisterServer(regS)

	regA := core.NewRegistry()
	lb.RegisterClient(regA)
	connA := dialLB(t, pn, addrs, regA, regS, nil)

	regB := core.NewRegistry()
	connB := dialLB(t, pn, addrs, regB, regS, nil)

	spread(t, connA, 40, 2)
	spread(t, connB, 40, 2)
}

func TestEmptyBackendsRejected(t *testing.T) {
	pn := transport.NewPipeNetwork()
	ctx := ctxT(t)
	regS := core.NewRegistry()
	lb.RegisterServer(regS)
	envS := core.NewEnv("srvhost")
	envS.SetDialer(&transport.MultiDialer{HostID: "srvhost", Pipe: pn})
	srvEp, _ := core.NewEndpoint("svc", spec.Seq(lb.Node(nil)),
		core.WithRegistry(regS), core.WithEnv(envS))
	baseL, _ := pn.Listen("srvhost", "empty")
	nl, _ := srvEp.Listen(ctx, baseL)
	go nl.Accept(ctx)
	cliEp, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(core.NewRegistry()))
	raw, _ := pn.Dial(ctx, core.Addr{Net: "pipe", Addr: "empty"})
	if _, err := cliEp.Connect(ctx, raw); err == nil {
		t.Error("empty backend list should fail negotiation")
	}
}

// TestProxyCloseJoins: the server proxy's captive joins its reply relays
// and its ingress loop: none is left when Close returns.
func TestProxyCloseJoins(t *testing.T) {
	ctx := ctxT(t)
	pn := transport.NewPipeNetwork()
	addrs := backends(t, pn, 2)
	reg := core.NewRegistry()
	lb.RegisterServer(reg)
	impl, _ := reg.Lookup(lb.ImplServer)
	env := core.NewEnv("srvhost")
	env.SetDialer(pn.Dialer("srvhost"))
	a := core.Addr{Net: "pipe", Host: "srvhost", Addr: "svc"}
	conn, peer := transport.Pipe(a, a, 16)
	defer peer.Close()
	var proxy core.Conn
	var err error
	running := testutil.Track(ctx, func() {
		proxy, err = impl.Wrap(ctx, conn, lb.Node(addrs).Args, nil, core.SideServer, env)
	})
	if err != nil {
		t.Fatal(err)
	}
	// One request through the proxy and its reply back: every loop runs.
	if err := peer.Send(ctx, []byte("q")); err != nil {
		t.Fatal(err)
	}
	if m, err := peer.Recv(ctx); err != nil || len(m) != 2 {
		t.Fatalf("reply %q, %v", m, err)
	}
	const fn = "lb.wrapServer.func"
	for deadline := time.Now().Add(2 * time.Second); running(fn) < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the proxy's 3 goroutines running", running(fn))
		}
	}
	proxy.Close()
	if n := running(fn); n != 0 {
		t.Errorf("%d of the proxy's goroutines left when Close returned", n)
	}
}
