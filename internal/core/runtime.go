package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/wire"
)

// Channel tags multiplexing negotiation control traffic and application
// data on the same base connection. Every datagram on a negotiated
// connection carries a one-byte tag.
const (
	tagCtrl byte = 0x00
	tagData byte = 0x01
)

// helloTimeout is the client's per-attempt wait for a ServerHello before
// retransmitting its ClientHello over a lossy base transport.
const helloTimeout = 250 * time.Millisecond

// helloRetries bounds ClientHello retransmissions.
const helloRetries = 8

// Endpoint is the Bertha equivalent of a socket (§3.1): a named endpoint
// carrying a Chunnel DAG, a registry of local implementations, an optional
// discovery client, and a selection policy. Endpoints are created once and
// used to establish many connections.
type Endpoint struct {
	name  string
	stack *spec.Stack
	// stackTypes is stack.Types(), the discovery query of every
	// connection whose effective DAG is this endpoint's.
	stackTypes []string
	registry   *Registry
	discovery  DiscoveryClient
	policy     Policy
	env        *Env
	optimizer  *Optimizer
	tel        *telemetry.Registry
	coalesce   *CoalesceConfig
	tracing    *TraceConfig
	reactor    *ReactorConfig
}

// Option configures an Endpoint.
type Option func(*Endpoint)

// WithRegistry uses reg instead of the process-wide default registry.
func WithRegistry(reg *Registry) Option {
	return func(e *Endpoint) { e.registry = reg }
}

// WithDiscovery attaches a discovery client; negotiation then considers
// operator-registered accelerated implementations (§4.2).
func WithDiscovery(d DiscoveryClient) Option {
	return func(e *Endpoint) { e.discovery = d }
}

// WithPolicy overrides the implementation-selection policy (§4.3).
func WithPolicy(p Policy) Option {
	return func(e *Endpoint) { e.policy = p }
}

// WithEnv supplies the execution environment (host identity, dialer,
// attachment points).
func WithEnv(env *Env) Option {
	return func(e *Endpoint) { e.env = env }
}

// WithOptimizer enables DAG optimization passes during negotiation (§6).
func WithOptimizer(o *Optimizer) Option {
	return func(e *Endpoint) { e.optimizer = o }
}

// WithTelemetry records this endpoint's metrics and negotiation traces
// into reg instead of the process-wide telemetry.Default() registry.
// Tests and benchmarks use it to read an isolated registry.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(e *Endpoint) { e.tel = reg }
}

// WithCoalescing wraps every connection this endpoint establishes in a
// send-side Coalescer (see that type for semantics): per-message SendBuf
// callers under sustained load are gathered into bursts that ride the
// vectored datapath, while idle connections keep the direct path. The
// zero CoalesceConfig selects the defaults (50µs budget, 64-message
// bursts).
func WithCoalescing(cfg CoalesceConfig) Option {
	cfg.fill()
	return func(e *Endpoint) { e.coalesce = &cfg }
}

// WithReactor configures the sharded reactor runtime on base listeners
// this endpoint listens on (those implementing ReactorConfigurer, i.e.
// the demuxing datagram transports): Shards reactor goroutines drain
// the shared socket into per-connection rings of RingSize messages. The
// zero ReactorConfig selects the defaults (GOMAXPROCS shards, 1024-slot
// rings); listeners without a reactor ignore the option.
func WithReactor(cfg ReactorConfig) Option {
	cfg.fill()
	return func(e *Endpoint) { e.reactor = &cfg }
}

// NewEndpoint creates a connection endpoint with the given debugging name
// and Chunnel DAG — the equivalent of bertha::new(name, wrap!(...)).
func NewEndpoint(name string, stack *spec.Stack, opts ...Option) (*Endpoint, error) {
	if stack == nil {
		stack = spec.Seq()
	}
	if err := stack.Validate(); err != nil {
		return nil, fmt.Errorf("bertha: invalid chunnel DAG: %w", err)
	}
	e := &Endpoint{
		name:       name,
		stack:      stack,
		stackTypes: stack.Types(),
		registry:   DefaultRegistry(),
		policy:     DefaultPolicy,
	}
	for _, o := range opts {
		o(e)
	}
	if e.env == nil {
		e.env = NewEnv("")
	}
	if e.tel == nil {
		e.tel = telemetry.Default()
	}
	return e, nil
}

// Name returns the endpoint's debugging name.
func (e *Endpoint) Name() string { return e.name }

// Stack returns the endpoint's declared Chunnel DAG.
func (e *Endpoint) Stack() *spec.Stack { return e.stack }

// Env returns the endpoint's execution environment.
func (e *Endpoint) Env() *Env { return e.env }

// Registry returns the endpoint's implementation registry.
func (e *Endpoint) Registry() *Registry { return e.registry }

// Telemetry returns the registry this endpoint records metrics and
// negotiation traces into.
func (e *Endpoint) Telemetry() *telemetry.Registry { return e.tel }

// negotiator bundles the server-side decision inputs for negotiate.go.
// The endpoint's fields are its per-endpoint inputs; host and snap are
// the connection's.
type negotiator struct {
	*Endpoint
	host string
	// snap is the registry snapshot this connection negotiates from.
	snap *regSnapshot
}

// paramProvider finds the negotiation parameter source for a binding: the
// chosen implementation when locally registered, else any local
// implementation of the same chunnel type.
func (n *negotiator) paramProvider(implName, chunnelType string) ParamProvider {
	if impl, ok := n.snap.byName[implName]; ok {
		if pp, ok := impl.(ParamProvider); ok {
			return pp
		}
	}
	for _, impl := range n.snap.impls[chunnelType] {
		if pp, ok := impl.(ParamProvider); ok {
			return pp
		}
	}
	return nil
}

// validateArgs checks node arguments with the chosen implementation when
// locally registered, else with any local implementation of the type.
func (n *negotiator) validateArgs(implName, chunnelType string, args []wire.Value) error {
	if impl, ok := n.snap.byName[implName]; ok {
		if av, ok := impl.(ArgValidator); ok {
			return av.ValidateArgs(args)
		}
		return nil
	}
	for _, impl := range n.snap.impls[chunnelType] {
		if av, ok := impl.(ArgValidator); ok {
			return av.ValidateArgs(args)
		}
	}
	return nil
}

func (e *Endpoint) negotiator(localHost string) *negotiator {
	return &negotiator{Endpoint: e, host: hostOr(e.env.Host, localHost), snap: e.registry.snapshot()}
}

// trace records a negotiation event into the endpoint's telemetry ring.
func (e *Endpoint) trace(side Side, kind string, ev telemetry.TraceEvent) {
	ev.Endpoint = e.name
	ev.Side = side.String()
	ev.Kind = kind
	e.tel.Trace().Record(ev)
}

// Connect establishes a negotiated connection over the raw base transport
// connection (§4.3). On success the returned Conn carries the full
// chunnel stack both endpoints agreed on.
func (e *Endpoint) Connect(ctx context.Context, raw Conn) (Conn, error) {
	tc := newTaggedConn(raw)
	snap := e.registry.snapshot()
	host := hostOr(e.env.Host, raw.LocalAddr().Host)

	// Pre-hello discovery round trip: learn about accelerated
	// implementations so our offers include anything we can instantiate.
	// Without any, the hello carries the snapshot's offer block as is.
	offers, block := snap.offers, snap.block
	if e.discovery != nil && !e.stack.Empty() {
		if disc, err := e.discovery.Query(ctx, e.stackTypes); err == nil {
			for _, o := range disc {
				if o.Host != "" && o.Host == host {
					offers = append(slices.Clip(offers), o)
					block = nil
				}
			}
		}
	}

	hello := &ClientHello{
		Nonce:      newNonce(),
		Name:       e.name,
		Host:       host,
		Spec:       e.stack,
		Offers:     offers,
		offerBlock: block,
	}
	helloBytes := encodeHello(hello)

	e.trace(SideClient, telemetry.TraceOfferSent, telemetry.TraceEvent{
		Detail: fmt.Sprintf("spec=%s offers=%d", e.stack, len(offers)),
	})
	helloStart := time.Now()
	sh, err := awaitServerHello(ctx, tc, helloBytes, hello.Nonce)
	rtt := time.Since(helloStart)
	if err != nil {
		e.trace(SideClient, telemetry.TraceFailed, telemetry.TraceEvent{Detail: err.Error()})
		raw.Close()
		return nil, err
	}
	if sh.Err != "" {
		e.trace(SideClient, telemetry.TraceFailed, telemetry.TraceEvent{
			Detail: sh.Err, Micros: float64(rtt.Nanoseconds()) / 1e3,
		})
		raw.Close()
		return nil, fmt.Errorf("%w: %s", ErrNegotiation, sh.Err)
	}
	e.trace(SideClient, telemetry.TraceServerHello, telemetry.TraceEvent{
		Detail: fmt.Sprintf("peer=%s stack=%d nodes", sh.Name, len(sh.Stack)),
		Micros: float64(rtt.Nanoseconds()) / 1e3,
	})
	for _, rn := range sh.Stack {
		e.trace(SideClient, telemetry.TraceImplChosen, telemetry.TraceEvent{
			Chunnel: rn.Type, Impl: rn.ImplName,
			Detail: fmt.Sprintf("location=%s owner=%s", rn.Location, rn.Owner),
		})
	}

	conn, err := e.assemble(ctx, tc, snap, sh.Stack, SideClient)
	if err != nil {
		e.trace(SideClient, telemetry.TraceFailed, telemetry.TraceEvent{Detail: err.Error()})
		raw.Close()
		return nil, err
	}
	e.trace(SideClient, telemetry.TraceConnected, telemetry.TraceEvent{
		Detail: describeStack(sh.Stack),
	})
	return conn, nil
}

// awaitServerHello sends the client hello and waits for the matching
// reply, retransmitting over lossy transports.
func awaitServerHello(ctx context.Context, tc *taggedConn, helloBytes []byte, nonce uint64) (*ServerHello, error) {
	for attempt := 0; attempt < helloRetries; attempt++ {
		if err := tc.sendTagged(ctx, tagCtrl, helloBytes); err != nil {
			return nil, fmt.Errorf("%w: send hello: %v", ErrNegotiation, err)
		}
		// Each attempt waits helloTimeout at most; a ctx that ends sooner
		// bounds the attempt by itself, and the wait needs no timer of
		// its own.
		wait, cancel := ctx, context.CancelFunc(func() {})
		if d, ok := ctx.Deadline(); !ok || time.Until(d) > helloTimeout {
			wait, cancel = context.WithTimeout(ctx, helloTimeout)
		}
		msg, err := tc.recvCtrl(wait)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				continue // retransmit
			}
			return nil, fmt.Errorf("%w: %v", ErrNegotiation, err)
		}
		d := wire.NewDecoder(msg)
		if mt := d.Uint8(); mt != msgServerHello {
			continue // stray control message
		}
		sh, err := DecodeServerHello(d)
		if err != nil {
			return nil, err
		}
		if sh.Nonce != nonce {
			continue // reply to an older hello
		}
		return sh, nil
	}
	return nil, fmt.Errorf("%w: no server hello after %d attempts", ErrNegotiation, helloRetries)
}

// Listen wraps a base Listener: each accepted base connection is
// negotiated server-side before being returned.
func (e *Endpoint) Listen(ctx context.Context, base Listener) (Listener, error) {
	if err := e.registry.CheckFallbacks(e.stack); err != nil {
		return nil, err
	}
	if e.reactor != nil {
		if rc, ok := base.(ReactorConfigurer); ok {
			if err := rc.ConfigureReactor(*e.reactor); err != nil {
				return nil, err
			}
		}
	}
	return &negotiatedListener{ep: e, base: base}, nil
}

type negotiatedListener struct {
	ep   *Endpoint
	base Listener
}

func (l *negotiatedListener) Accept(ctx context.Context) (Conn, error) {
	for {
		raw, err := l.base.Accept(ctx)
		if err != nil {
			return nil, err
		}
		conn, err := l.ep.accept(ctx, raw)
		if err != nil {
			// A failed handshake poisons only that peer connection;
			// keep accepting (the failure was already reported to the
			// peer in the ServerHello when possible).
			raw.Close()
			continue
		}
		return conn, nil
	}
}

func (l *negotiatedListener) Addr() Addr   { return l.base.Addr() }
func (l *negotiatedListener) Close() error { return l.base.Close() }

// accept performs the server half of negotiation on one accepted base
// connection.
func (e *Endpoint) accept(ctx context.Context, raw Conn) (Conn, error) {
	tc := newTaggedConn(raw)
	neg := e.negotiator(raw.LocalAddr().Host)

	msg, err := tc.recvCtrl(ctx)
	if err != nil {
		return nil, fmt.Errorf("%w: awaiting client hello: %v", ErrNegotiation, err)
	}
	d := wire.NewDecoder(msg)
	if mt := d.Uint8(); mt != msgClientHello {
		return nil, fmt.Errorf("%w: unexpected control message %d", ErrNegotiation, mt)
	}
	ch, block, err := decodeHelloHead(d)
	if err != nil {
		return nil, err
	}
	tab, err := neg.snap.table(block)
	if err != nil {
		return nil, malformedHello(err)
	}
	ch.Offers = tab.client
	e.trace(SideServer, telemetry.TraceHelloRecv, telemetry.TraceEvent{
		Detail: fmt.Sprintf("peer=%s host=%s spec=%s offers=%d", ch.Name, ch.Host, ch.Spec, len(ch.Offers)),
	})

	sh := &ServerHello{Nonce: ch.Nonce, Name: e.name, Host: neg.host}
	resolved, derr := decide(ctx, ch, tab, neg)
	if derr != nil {
		sh.Err = derr.Error()
	} else {
		sh.Stack = resolved
	}
	reply := encodeHello(sh)
	if err := tc.sendTagged(ctx, tagCtrl, reply); err != nil {
		return nil, fmt.Errorf("%w: send server hello: %v", ErrNegotiation, err)
	}
	if derr != nil {
		e.trace(SideServer, telemetry.TraceFailed, telemetry.TraceEvent{Detail: derr.Error()})
		return nil, derr
	}
	// Duplicate ClientHellos (client retransmits over lossy links) are
	// answered with the cached reply by the tagged conn's control loop.
	tc.setCtrlResponder(ch.Nonce, reply)

	conn, err := e.assemble(ctx, tc, neg.snap, resolved, SideServer)
	if err != nil {
		e.trace(SideServer, telemetry.TraceFailed, telemetry.TraceEvent{Detail: err.Error()})
		return nil, err
	}
	e.trace(SideServer, telemetry.TraceConnected, telemetry.TraceEvent{
		Detail: describeStack(resolved),
	})
	return conn, nil
}

// describeStack renders a resolved stack as "type=impl → type=impl" for
// trace events.
func describeStack(stack []ResolvedNode) string {
	if len(stack) == 0 {
		return "(empty stack)"
	}
	const sep = " → "
	var b strings.Builder
	n := len(sep) * (len(stack) - 1)
	for _, rn := range stack {
		n += len(rn.Type) + 1 + len(rn.ImplName)
	}
	b.Grow(n)
	for i, rn := range stack {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(rn.Type)
		b.WriteByte('=')
		b.WriteString(rn.ImplName)
	}
	return b.String()
}

// assemble instantiates the local side of a resolved stack: Init then Wrap
// for every chunnel this side runs, outermost chunnel wrapped last so that
// application sends enter the stack at the top.
// Implementations come from snap, the snapshot the connection negotiated
// from.
func (e *Endpoint) assemble(ctx context.Context, tc *taggedConn, snap *regSnapshot, stack []ResolvedNode, side Side) (Conn, error) {
	if e.env.Dialer() == nil {
		// Provide a same-transport dialer so chunnels can open extra
		// base connections; transports may install richer dialers.
		e.env.SetDialer(DialerFunc(func(ctx context.Context, addr Addr) (Conn, error) {
			return nil, fmt.Errorf("bertha: no dialer available for %s", addr)
		}))
	}
	// Capacity hint: sum the header overhead of every layer this side
	// will run (plus the mux tag byte) so the application can allocate
	// send buffers once, with headroom for the whole negotiated stack.
	headroom := 1 // sendTagged's tag byte
	for _, rn := range stack {
		if !rn.RunsAt(side) {
			continue
		}
		if impl, ok := snap.byName[rn.ImplName]; ok {
			headroom += impl.Info().SendOverhead
		}
	}
	e.env.SetStackHeadroom(headroom)

	// When negotiation put the trace chunnel into the stack, enable the
	// per-registry span ring. Handles minted from a nil ring are inert,
	// so the untraced path needs no branches below.
	var spanRing *tracing.SpanRing
	if stackHasTrace(stack) {
		ringSize := tracing.DefaultRingSize
		if e.tracing != nil {
			ringSize = e.tracing.RingSize
		}
		spanRing = e.tel.EnableSpans(ringSize)
	}

	// The base of the instrumented stack: the mux data channel, recorded
	// under the pseudo-chunnel type "transport" so readouts attribute
	// wire time separately from every chunnel above it.
	data := tc.dataConn()
	baseMetrics := e.tel.Conn("transport", tc.raw.LocalAddr().Net)
	var conn Conn = InstrumentTraced(data, baseMetrics,
		spanRing.Handle("transport", tc.raw.LocalAddr().Net))
	// layerMetrics collects each instrumented layer innermost-first; the
	// managedConn derives per-hop exclusive latency (HopStats) from
	// adjacent layers' inclusive histograms.
	layerMetrics := []*telemetry.ConnMetrics{baseMetrics}
	var active []activeImpl
	// Batch-awareness bookkeeping: a SendBufs burst entering the top of
	// the stack stays vectored only while every layer on the way down
	// implements BatchConn natively; the first per-message layer breaks
	// it into a SendBuf loop. The instrumented wrappers forward the
	// vectored path transparently, so awareness is judged on the chunnel
	// connections themselves (before instrumentation), innermost first.
	_, baseAware := data.(BatchConn)
	aware := append(make([]bool, 0, len(stack)+1), baseAware)
	for i := len(stack) - 1; i >= 0; i-- {
		rn := stack[i]
		if !rn.RunsAt(side) {
			continue
		}
		impl, ok := snap.byName[rn.ImplName]
		if !ok {
			// The peer selected an implementation we cannot instantiate.
			teardownAll(ctx, active, e)
			return nil, fmt.Errorf("%w: %q not in local registry", ErrNoImplementation, rn.ImplName)
		}
		if err := impl.Init(ctx, e.env, rn.Args); err != nil {
			teardownAll(ctx, active, e)
			return nil, fmt.Errorf("bertha: init %q: %w", rn.ImplName, err)
		}
		wrapped, err := impl.Wrap(ctx, conn, rn.Args, rn.Params, side, e.env)
		if err != nil {
			impl.Teardown(ctx, e.env)
			teardownAll(ctx, active, e)
			return nil, fmt.Errorf("bertha: wrap %q: %w", rn.ImplName, err)
		}
		_, isAware := wrapped.(BatchConn)
		aware = append(aware, isAware)
		// Each resolved node gets an instrumented wrapper above it,
		// preallocated per (type, impl) pair: sends/recvs/bytes/errors
		// and inclusive latency, at zero allocations per message.
		layerM := e.tel.Conn(rn.Type, rn.ImplName)
		conn = InstrumentTraced(wrapped, layerM, spanRing.Handle(rn.Type, rn.ImplName))
		layerMetrics = append(layerMetrics, layerM)
		active = append(active, activeImpl{impl: impl, claim: rn.ClaimID})
	}
	// The vectored segment is the contiguous batch-aware run from the
	// top of the stack down: that is how deep an application burst
	// travels before degrading to per-message sends.
	vectored := 0
	for i := len(aware) - 1; i >= 0 && aware[i]; i-- {
		vectored++
	}
	e.trace(side, telemetry.TraceBatchPath, telemetry.TraceEvent{
		Detail: fmt.Sprintf("vectored %d/%d layers from the top", vectored, len(aware)),
	})
	if e.coalesce != nil {
		conn = NewCoalescer(conn, *e.coalesce, e.tel)
	}
	// The sampling decision lives at the very top of the stack (above
	// the coalescer) so every instrumented wrapper underneath sees the
	// trace context on the way down.
	if e.tracing != nil && spanRing != nil {
		conn = &samplerConn{Datapath: Resolve(conn), sampler: tracing.NewSampler(e.tracing.SampleRate)}
	}
	openConns := e.tel.Gauge("core/open_conns")
	openConns.Add(1)
	return &managedConn{
		Datapath: Resolve(conn), ep: e, side: side, active: active,
		layers: layerMetrics, openConns: openConns,
	}, nil
}

type activeImpl struct {
	impl  Impl
	claim uint64
}

func teardownAll(ctx context.Context, active []activeImpl, e *Endpoint) {
	for i := len(active) - 1; i >= 0; i-- {
		active[i].impl.Teardown(ctx, e.env)
		if active[i].claim != 0 && e.discovery != nil {
			e.discovery.Release(ctx, active[i].claim)
		}
	}
}

// teardownTimeout bounds the discovery-release RPCs a closing
// connection issues: Close has no caller context, and a dead discovery
// service must not wedge shutdown.
const teardownTimeout = 5 * time.Second

// managedConn is the top of a negotiated stack: the single place where
// the application's Send(p) and Recv() become the Buf path (every other
// entry point it inherits from the stack below), and where closing runs
// implementation teardown and resource release.
type managedConn struct {
	Datapath
	ep     *Endpoint
	side   Side
	active []activeImpl
	// layers holds each instrumented layer's metrics innermost-first
	// (base transport at index 0) — the input to HopStats.
	layers    []*telemetry.ConnMetrics
	openConns *telemetry.Gauge
	once      sync.Once
}

func (m *managedConn) Send(ctx context.Context, p []byte) error {
	return m.SendBuf(ctx, wire.NewBufFrom(m.Headroom(), p))
}

func (m *managedConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := m.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

// HopStats derives each layer's exclusive send latency (p50/p95, µs)
// from the inclusive latency histograms of adjacent layers, folds the
// result into each layer's EWMA rollup, and returns it outermost layer
// first. A layer's inclusive latency contains every layer below it, so
// the difference against its inner neighbour isolates the layer's own
// cost; the base transport keeps its full inclusive time.
func (m *managedConn) HopStats() []HopStat {
	out := make([]HopStat, 0, len(m.layers))
	prevP50, prevP95 := 0.0, 0.0
	prevOK := false
	stats := make([]HopStat, len(m.layers))
	for i, lm := range m.layers {
		snap := lm.SendLatency.Snapshot()
		if snap.Count == 0 {
			stats[i] = HopStat{Chunnel: lm.Chunnel, Impl: lm.Impl}
			prevOK = false
			continue
		}
		p50, p95 := snap.Quantile(0.50), snap.Quantile(0.95)
		e50, e95 := p50, p95
		if prevOK {
			e50, e95 = p50-prevP50, p95-prevP95
			if e50 < 0 {
				e50 = 0
			}
			if e95 < 0 {
				e95 = 0
			}
		}
		lm.FoldHopExcl(e50, e95)
		r50, r95, _ := lm.HopExcl()
		stats[i] = HopStat{Chunnel: lm.Chunnel, Impl: lm.Impl, ExclP50: r50, ExclP95: r95}
		prevP50, prevP95, prevOK = p50, p95, true
	}
	for i := len(stats) - 1; i >= 0; i-- {
		out = append(out, stats[i])
	}
	return out
}

// Flush forwards to the coalescer when the endpoint coalesces sends
// (WithCoalescing); otherwise it is a no-op.
func (m *managedConn) Flush(ctx context.Context) error {
	return Flush(ctx, m.Datapath)
}

func (m *managedConn) Close() error {
	err := m.Datapath.Close()
	m.once.Do(func() {
		if m.openConns != nil {
			m.openConns.Add(-1)
		}
		ctx, cancel := context.WithTimeout(context.Background(), teardownTimeout)
		defer cancel()
		teardownAll(ctx, m.active, m.ep)
		m.ep.trace(m.side, telemetry.TraceTeardown, telemetry.TraceEvent{
			Detail: fmt.Sprintf("%d impls torn down", len(m.active)),
		})
	})
	return err
}

func hostOr(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func newNonce() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("bertha: crypto/rand unavailable: " + err.Error())
	}
	return binary.LittleEndian.Uint64(b[:])
}
