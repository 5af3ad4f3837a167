package traced_test

import (
	"context"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/traced"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// tracedPair negotiates one connection between endpoints that both
// register the trace chunnel, with per-side isolated telemetry.
func tracedPair(t *testing.T, cliOpts, srvOpts []core.Option) (cli, srv core.Conn, cliTel, srvTel *telemetry.Registry) {
	t.Helper()
	ctx := ctxT(t)

	cliReg := core.NewRegistry()
	traced.Register(cliReg)
	srvReg := core.NewRegistry()
	traced.Register(srvReg)
	cliTel = telemetry.New()
	srvTel = telemetry.New()

	cliEP, err := core.NewEndpoint("cli", nil,
		append([]core.Option{core.WithRegistry(cliReg), core.WithTelemetry(cliTel)}, cliOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	srvEP, err := core.NewEndpoint("srv", nil,
		append([]core.Option{core.WithRegistry(srvReg), core.WithTelemetry(srvTel)}, srvOpts...)...)
	if err != nil {
		t.Fatal(err)
	}

	pn := transport.NewPipeNetwork()
	base, err := pn.Listen("srvhost", "svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { base.Close() })
	nl, err := srvEP.Listen(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		conn core.Conn
		err  error
	}
	srvCh := make(chan res, 1)
	go func() {
		c, err := nl.Accept(ctx)
		srvCh <- res{c, err}
	}()
	raw, err := pn.DialFrom(ctx, "clihost", core.Addr{Net: "pipe", Addr: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	cconn, err := cliEP.Connect(ctx, raw)
	if err != nil {
		t.Fatalf("client connect: %v", err)
	}
	r := <-srvCh
	if r.err != nil {
		t.Fatalf("server accept: %v", r.err)
	}
	t.Cleanup(func() { cconn.Close(); r.conn.Close() })
	return cconn, r.conn, cliTel, srvTel
}

// TestTracedNegotiatedE2E drives sampled traffic through a negotiated
// traced stack and asserts the full journey reassembles: client send
// spans + server recv spans merge into one complete tree whose per-hop
// exclusive latencies telescope to the end-to-end latency exactly.
func TestTracedNegotiatedE2E(t *testing.T) {
	ctx := ctxT(t)
	cfg := core.TraceConfig{SampleRate: 1, RingSize: 1024}
	cconn, sconn, cliTel, srvTel := tracedPair(t,
		[]core.Option{core.WithTracing(cfg)}, []core.Option{core.WithTracing(cfg)})

	const msgs = 8
	for i := 0; i < msgs; i++ {
		b := wire.NewBuf(64, 32)
		copy(b.Bytes(), "trace-me")
		if err := cconn.(core.BufConn).SendBuf(ctx, b); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		rb, err := sconn.(core.BufConn).RecvBuf(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !rb.Traced() {
			t.Fatalf("message %d arrived without its trace context (rate-1 sampling)", i)
		}
		rb.Release()
	}

	cliRing, srvRing := cliTel.Spans(), srvTel.Spans()
	if cliRing == nil || srvRing == nil {
		t.Fatal("span rings not enabled by assemble")
	}
	merged := append(cliRing.Snapshot(), srvRing.Snapshot()...)
	trees := tracing.BuildTrees(merged)
	complete := 0
	for _, tr := range trees {
		if !tr.Complete {
			continue
		}
		complete++
		if tr.ExclSum != tr.EndToEnd {
			t.Fatalf("telescoping broken: Σexcl %dns != end-to-end %dns\n%s",
				tr.ExclSum, tr.EndToEnd, tr.String())
		}
		kinds := map[string]bool{}
		for _, h := range tr.Hops {
			kinds[h.KindName+"/"+h.Layer] = true
		}
		for _, want := range []string{"send/trace", "send/transport", "recv/trace"} {
			if !kinds[want] {
				t.Fatalf("tree missing %s hop: %v", want, kinds)
			}
		}
	}
	if complete != msgs {
		t.Fatalf("reassembled %d complete trees, want %d", complete, msgs)
	}

	// The per-connection rollup: exclusive p50/p95 per layer, outermost
	// first, folded into ConnMetrics EWMAs.
	hops := core.ConnHopStats(cconn)
	if len(hops) < 2 {
		t.Fatalf("HopStats returned %d layers, want the traced stack's >= 2", len(hops))
	}
	if hops[len(hops)-1].Chunnel != "transport" {
		t.Fatalf("innermost hop should be the transport, got %+v", hops)
	}
	snap := cliTel.Snapshot()
	found := false
	for _, c := range snap.Conns {
		if c.Chunnel == "transport" && c.HopExclP95 > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("HopStats did not fold EWMAs into the snapshot: %+v", snap.Conns)
	}
	if snap.SpanTotal == 0 {
		t.Fatal("snapshot span_total is zero after traced traffic")
	}
}

// TestTracedUnsampledMarker verifies the wire protocol between traced
// peers when sampling skips a message: one marker byte, no context, and
// the receive side leaves the Buf untraced.
func TestTracedUnsampledMarker(t *testing.T) {
	ctx := ctxT(t)
	// Sample "rate" so low the interval sampler never fires in this test.
	cfg := core.TraceConfig{SampleRate: 1e-9, RingSize: 64}
	cconn, sconn, _, _ := tracedPair(t,
		[]core.Option{core.WithTracing(cfg)}, []core.Option{core.WithTracing(cfg)})

	b := wire.NewBuf(64, 8)
	copy(b.Bytes(), "plain")
	if err := cconn.(core.BufConn).SendBuf(ctx, b); err != nil {
		t.Fatal(err)
	}
	rb, err := sconn.(core.BufConn).RecvBuf(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Release()
	if rb.Traced() {
		t.Fatal("unsampled message arrived traced")
	}
	if got := string(rb.Bytes()[:5]); got != "plain" {
		t.Fatalf("payload corrupted: %q", got)
	}
}

// TestTracedNotNegotiatedWithoutOptIn: without WithTracing on the
// server, the stack carries no trace chunnel even when both registries
// offer it — tracing is an explicit opt-in.
func TestTracedNotNegotiatedWithoutOptIn(t *testing.T) {
	ctx := ctxT(t)
	cconn, sconn, cliTel, srvTel := tracedPair(t, nil, nil)
	if cliTel.Spans() != nil || srvTel.Spans() != nil {
		t.Fatal("span ring enabled without WithTracing")
	}
	b := wire.NewBuf(64, 8)
	copy(b.Bytes(), "notrace!")
	if err := cconn.(core.BufConn).SendBuf(ctx, b); err != nil {
		t.Fatal(err)
	}
	rb, err := sconn.(core.BufConn).RecvBuf(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Release()
	if rb.Traced() {
		t.Fatal("untraced stack produced a traced buffer")
	}
	if got := string(rb.Bytes()); got != "notrace!" {
		t.Fatalf("payload corrupted: %q", got)
	}
}

// TestTracingAllocs is the CI gate for the tentpole's cost claim: with
// tracing negotiated but the message unsampled, a full send+recv round
// through the stack allocates nothing beyond the pooled buffer cycle
// (which nets to zero).
func TestTracingAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	cfg := core.TraceConfig{SampleRate: 1e-9, RingSize: 64}
	cconn, sconn, _, _ := tracedPair(t,
		[]core.Option{core.WithTracing(cfg)}, []core.Option{core.WithTracing(cfg)})
	cb, sb := cconn.(core.BufConn), sconn.(core.BufConn)

	send := func() {
		b := wire.NewBuf(64, 32)
		if err := cb.SendBuf(ctx, b); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		rb, err := sb.RecvBuf(ctx)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		rb.Release()
	}
	// Warm the buffer pools and any lazily allocated internals.
	for i := 0; i < 10; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(100, send); avg >= 1 {
		t.Fatalf("unsampled traced round trip allocates %.2f objects/op, want 0", avg)
	}
}

// TestTracedSampledAllocs gates the sampled path too: recording spans
// into the ring is atomic stores on preallocated slots, so even traced
// messages allocate nothing until someone snapshots the ring.
func TestTracedSampledAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	a := core.Addr{Net: "pipe", Host: "a", Addr: "a"}
	bAddr := core.Addr{Net: "pipe", Host: "b", Addr: "b"}
	p1, p2 := transport.Pipe(a, bAddr, 64)
	ring := tracing.NewSpanRing(256)
	tel := telemetry.New()
	cli := core.InstrumentTraced(traced.New(p1), tel.Conn("trace", core.TraceImplName),
		ring.Handle("trace", core.TraceImplName)).(core.BufConn)
	srv := traced.New(p2).(core.BufConn)

	send := func() {
		b := wire.NewBuf(64, 32)
		b.SetTrace(tracing.NewTraceID(), 0, 0)
		if err := cli.SendBuf(ctx, b); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		rb, err := srv.RecvBuf(ctx)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if !rb.Traced() {
			t.Error("sampled message lost its context")
		}
		rb.Release()
	}
	for i := 0; i < 10; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(100, send); avg >= 1 {
		t.Fatalf("sampled traced round trip allocates %.2f objects/op, want 0", avg)
	}
	if ring.Total() == 0 {
		t.Fatal("sampled runs recorded no spans")
	}
}
