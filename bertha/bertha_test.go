package bertha_test

import (
	"context"
	"testing"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestGlossaryCoverage is the Table 1 check: every glossary term maps to
// exported API surface.
func TestGlossaryCoverage(t *testing.T) {
	// Chunnel — a DAG node.
	n := bertha.Reliable()
	if n.Type != "reliable" {
		t.Errorf("chunnel node: %+v", n)
	}
	// Chunnel DAG — a Stack built with Wrap.
	s := bertha.Wrap(bertha.Serialize(), bertha.Reliable())
	if s.String() == "" || len(s.Nodes) != 2 {
		t.Errorf("chunnel DAG: %s", s)
	}
	// Scope — placement constraint.
	scoped := bertha.LocalOrRemote().WithScope(bertha.ScopeHost)
	if scoped.Scope != bertha.ScopeHost {
		t.Error("scope constraint")
	}
	// Fallback Impl. / Offload — implementations in a registry.
	reg := bertha.NewRegistry()
	bertha.RegisterStandard(reg)
	if _, err := reg.Fallback("reliable"); err != nil {
		t.Errorf("fallback impl: %v", err)
	}
	for _, typ := range []string{"serialize", "reliable", "ordering", "compress",
		"encrypt", "http2", "ipc", "passthrough", "shard", "lb", "ordered_mcast"} {
		if impls := reg.ImplsFor(typ); len(impls) == 0 {
			t.Errorf("no implementation registered for %q", typ)
		}
	}
}

func TestQuickstartShape(t *testing.T) {
	// The README quickstart, end to end over an in-process transport.
	ctx := ctxT(t)
	regS, regC := bertha.NewRegistry(), bertha.NewRegistry()
	bertha.RegisterStandard(regS)
	bertha.RegisterStandard(regC)

	pn := transport.NewPipeNetwork()
	srv, err := bertha.New("quickstart-server",
		bertha.Wrap(bertha.Serialize(), bertha.Reliable()),
		bertha.WithRegistry(regS))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := pn.Listen("srvhost", "svc")
	nl, err := srv.Listen(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := nl.Accept(ctx)
		if err != nil {
			return
		}
		for {
			m, err := conn.Recv(ctx)
			if err != nil {
				return
			}
			conn.Send(ctx, append([]byte("echo: "), m...))
		}
	}()

	cli, err := bertha.New("quickstart-client", bertha.Wrap(), bertha.WithRegistry(regC))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := pn.DialFrom(ctx, "clihost", bertha.Addr{Net: "pipe", Addr: "svc"})
	conn, err := cli.Connect(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(ctx, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv(ctx)
	if err != nil || string(m) != "echo: hello" {
		t.Fatalf("recv: %q %v", m, err)
	}
}

// TestOptimizerInNegotiation drives WithOptimizer through a real
// negotiation: the server declares compress |> compress |> encrypt |>
// http2, the optimizer drops the redundant idempotent compress, and the
// client's negotiated connection carries one compress layer and still
// echoes.
func TestOptimizerInNegotiation(t *testing.T) {
	ctx := ctxT(t)
	regS, regC := bertha.NewRegistry(), bertha.NewRegistry()
	bertha.RegisterStandard(regS)
	bertha.RegisterStandard(regC)

	pn := transport.NewPipeNetwork()
	srv, err := bertha.New("opt-server",
		bertha.Wrap(bertha.Compress(6), bertha.Compress(6), bertha.Encrypt([]byte("k")), bertha.HTTP2(4096)),
		bertha.WithRegistry(regS), bertha.WithOptimizer(bertha.NewOptimizer(regS)))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := pn.Listen("srvhost", "opt")
	nl, err := srv.Listen(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := nl.Accept(ctx)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv(ctx)
			if err != nil {
				return
			}
			conn.Send(ctx, m)
		}
	}()

	cli, err := bertha.New("opt-client", bertha.Wrap(), bertha.WithRegistry(regC))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := pn.DialFrom(ctx, "clihost", bertha.Addr{Net: "pipe", Addr: "opt"})
	conn, err := cli.Connect(ctx, raw)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const msg = "through the optimized stack"
	if err := conn.Send(ctx, []byte(msg)); err != nil {
		t.Fatal(err)
	}
	if m, err := conn.Recv(ctx); err != nil || string(m) != msg {
		t.Fatalf("recv: %q %v", m, err)
	}

	var layers []string
	compress := 0
	for _, h := range bertha.ConnHopStats(conn) {
		layers = append(layers, h.Chunnel)
		if h.Chunnel == "compress" {
			compress++
		}
	}
	if compress != 1 || len(layers) != 4 {
		t.Fatalf("negotiated layers %v: want one compress, encrypt, http2 and the transport", layers)
	}
}

func TestRegisterChunnelDefaultRegistry(t *testing.T) {
	// RegisterChunnel targets the process-wide registry; use a unique
	// type to avoid collisions with other tests.
	err := bertha.RegisterChunnel(&fakeImpl{info: bertha.ImplInfo{
		Name: "testonly/fb", Type: "testonly",
		Endpoint: bertha.EndpointBoth, Location: bertha.LocUserspace,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bertha.DefaultRegistry().Fallback("testonly"); err != nil {
		t.Error(err)
	}
	// Duplicate registration errors.
	if err := bertha.RegisterChunnel(&fakeImpl{info: bertha.ImplInfo{
		Name: "testonly/fb", Type: "testonly",
	}}); err == nil {
		t.Error("duplicate registration accepted")
	}
}

type fakeImpl struct {
	info bertha.ImplInfo
}

func (f *fakeImpl) Info() bertha.ImplInfo { return f.info }
func (f *fakeImpl) Init(ctx context.Context, env *bertha.Env, args []wire.Value) error {
	return nil
}
func (f *fakeImpl) Teardown(ctx context.Context, env *bertha.Env) error { return nil }
func (f *fakeImpl) Wrap(ctx context.Context, conn bertha.Conn, args, params []wire.Value, side bertha.Side, env *bertha.Env) (bertha.Conn, error) {
	return conn, nil
}
