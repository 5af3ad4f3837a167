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
	"sync/atomic"
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
	// held are the tickets this endpoint may resume connections with,
	// by the server address they resume; issued are those it gave out
	// as a server.
	held   ticketStore[string, clientTicket]
	issued ticketStore[ticket, serverTicket]
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
	e.held.onDrop = clientTicket.drop
	e.issued.onDrop = serverTicket.drop
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
	// queried is the discovery query decide made and discovered its
	// answer: what a ticket remembers of the decision.
	queried    []string
	discovered []ImplOffer
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
//
// When the stack's innermost node is a Resumer, the server's hello
// carries a ticket, and the connection is established by presenting it
// on the Resumer's own connection (resume.go); raw is closed then. A
// connection to an address this endpoint holds a ticket for is resumed
// that way without a hello when raw is a DirectConn. A resume that
// fails falls back to negotiating on raw. A resume touches nothing of
// raw but Direct, RemoteAddr and Close, and asks it for no local address
// when the endpoint's Env names its host: a transport that opens its
// socket on first use (transport.DialUDP) then never opens one.
func (e *Endpoint) Connect(ctx context.Context, raw Conn) (Conn, error) {
	snap := e.registry.snapshot()
	host := e.env.Host
	if host == "" {
		host = raw.LocalAddr().Host
	}
	conn, why := e.resume(ctx, raw, snap, host)
	if conn != nil {
		return conn, nil
	}
	tc := newTaggedConn(raw)
	// Pre-hello discovery round trip: learn about accelerated
	// implementations so our offers include anything we can instantiate.
	discovered := e.discoveredOffers(ctx, host)
	sh, err := e.hello(ctx, tc, snap, host, discovered)
	if err != nil {
		raw.Close()
		return nil, err
	}
	if len(sh.Ticket) > 0 {
		raw.Close() // the connection goes on at the rendezvous
		conn, err = e.rendezvous(ctx, raw.RemoteAddr().Addr, snap, sh, discovered)
	} else if conn, err = e.assemble(ctx, snap, sh.Stack, SideClient, nil, tc.dataConn()); err != nil {
		raw.Close()
	}
	if err != nil {
		e.trace(SideClient, telemetry.TraceFailed, telemetry.TraceEvent{Detail: err.Error()})
		return nil, err
	}
	e.trace(SideClient, telemetry.TraceConnected, telemetry.TraceEvent{
		Deferred: telemetry.Detailf("%v").Value((*stackDesc)(&sh.Stack)),
	})
	e.traceCold(SideClient, why)
	return conn, nil
}

// hello runs the client half of the handshake on tc: it offers the
// snapshot's implementations and the discovered ones, and returns the
// server's answer. Every outcome is traced, and a refusal is an error.
func (e *Endpoint) hello(ctx context.Context, tc *taggedConn, snap *regSnapshot, host string, discovered []ImplOffer) (*ServerHello, error) {
	// Without discovered offers, the hello carries the snapshot's offer
	// block as is.
	offers, block := snap.offers, snap.block
	if len(discovered) > 0 {
		offers, block = append(slices.Clip(offers), discovered...), nil
	}
	hello := &ClientHello{
		Nonce:      newNonce(),
		Name:       e.name,
		Host:       host,
		Spec:       e.stack,
		Offers:     offers,
		offerBlock: block,
	}
	e.trace(SideClient, telemetry.TraceOfferSent, telemetry.TraceEvent{
		Deferred: telemetry.Detailf("spec=%v offers=%d").Value(e.stack).Int(len(offers)),
	})
	helloStart := time.Now()
	sh, err := awaitServerHello(ctx, tc, encodeHello(hello), hello.Nonce)
	rtt := time.Since(helloStart)
	if err != nil {
		e.trace(SideClient, telemetry.TraceFailed, telemetry.TraceEvent{Detail: err.Error()})
		return nil, err
	}
	if sh.Err != "" {
		e.trace(SideClient, telemetry.TraceFailed, telemetry.TraceEvent{
			Detail: sh.Err, Micros: float64(rtt.Nanoseconds()) / 1e3,
		})
		return nil, fmt.Errorf("%w: %s", ErrNegotiation, sh.Err)
	}
	e.trace(SideClient, telemetry.TraceServerHello, telemetry.TraceEvent{
		Deferred: telemetry.Detailf("peer=%s stack=%d nodes").Str(sh.Name).Int(len(sh.Stack)),
		Micros:   float64(rtt.Nanoseconds()) / 1e3,
	})
	for _, rn := range sh.Stack {
		e.trace(SideClient, telemetry.TraceImplChosen, telemetry.TraceEvent{
			Chunnel: rn.Type, Impl: rn.ImplName,
			Deferred: telemetry.Detailf("location=%s owner=%s").Str(rn.Location.String()).Str(rn.Owner.String()),
		})
	}
	return sh, nil
}

// traceCold records that a connection was negotiated cold, and why a
// resume did not establish it when one was tried.
func (e *Endpoint) traceCold(side Side, why string) {
	ev := telemetry.TraceEvent{Detail: "cold"}
	if why != "" {
		ev = telemetry.TraceEvent{Deferred: telemetry.Detailf("cold: %s").Str(why)}
	}
	e.trace(side, telemetry.TraceResume, ev)
}

// awaitServerHello sends the client hello and waits for the matching
// reply, retransmitting over lossy transports.
func awaitServerHello(ctx context.Context, tc *taggedConn, helloBytes []byte, nonce uint64) (*ServerHello, error) {
	for attempt := 0; attempt < helloRetries; attempt++ {
		if err := tc.sendTagged(ctx, tagCtrl, helloBytes); err != nil {
			return nil, fmt.Errorf("%w: send hello: %v", ErrNegotiation, err)
		}
		wait, lc := attemptCtx(ctx)
		msg, err := tc.recvCtrl(wait)
		lc.release()
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
// negotiated server-side before being returned. The endpoint provides
// its ResumeSink in its Env (EnvResume), so connections resumed with a
// ticket this listener issued are returned by its Accept too.
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
	e.env.Provide(EnvResume, ResumeSink(e.takeResume))
	l := &negotiatedListener{
		ep: e, base: base,
		conns:  make(chan Conn, acceptBacklog),
		slots:  make(chan struct{}, acceptBacklog),
		done:   make(chan struct{}),
		failed: make(chan struct{}),
	}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	l.turn = l.run
	return l, nil
}

// acceptBacklog bounds a listener's admissions: the connections it is
// negotiating or resuming and those it holds for Accept. A cold hello
// waits for a place before it is answered, and a ticket presented when
// there is none is rejected (a resume goes cold, a splice fails). It is
// room for a burst of connecting clients while the application is
// between two Accepts, without holding more than a small fixed number
// of connections nobody took.
const acceptBacklog = 64

// handshakeBudget bounds one cold handshake on the server: the client
// gives up after as long (helloRetries attempts of helloTimeout), so no
// peer holds its admission's place any longer.
const handshakeBudget = helloRetries * helloTimeout

// negotiatedListener returns negotiated connections from two sources:
// cold handshakes, each admitted on a goroutine of its own by a turn of
// the accept loop that the first Accept starts, and connections
// established by a ticket (a splice's or a resume's), which the
// endpoint's ResumeSink admits on its caller's goroutine. Every
// admission takes a place in slots before it answers, and ends in
// queueOrClose: its connection is queued for Accept, or closed and its
// place given back. Close joins the loop and every admission. No
// admission waits on a peer past its answer.
type negotiatedListener struct {
	ep   *Endpoint
	base Listener

	conns chan Conn     // negotiated, not yet accepted
	slots chan struct{} // a place per admission in progress or connection queued
	done  chan struct{} // closed by Close
	// failed is closed when the base listener's Accept failed with err.
	failed chan struct{}
	err    error

	// ctx bounds every admission; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	// turn is run, made once: a go statement that calls it starts a
	// turn without allocating.
	turn func()

	start sync.Once
	close sync.Once

	// mu orders what is put on conns, and every admission's start,
	// against Close: nothing starts and nothing is queued once closed is
	// set. admissions counts each turn of the accept loop until it has
	// queued or closed what it accepted, and each admission by ticket
	// until it has queued or closed its connection. The first turn and
	// every admission by ticket are added under mu while closed is unset;
	// every later turn by the turn before it, while that one is counted.
	mu         sync.Mutex
	closed     bool
	admissions sync.WaitGroup
}

func (l *negotiatedListener) Accept(ctx context.Context) (Conn, error) {
	l.start.Do(l.startLoop)
	// A queued connection goes out before the base listener's failure.
	select {
	case c := <-l.conns:
		<-l.slots
		return c, nil
	default:
	}
	select {
	case c := <-l.conns:
		<-l.slots
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	case <-l.failed:
		return nil, l.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *negotiatedListener) startLoop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.admissions.Add(1)
		go l.turn()
	}
}

// run is the accept loop until it takes up a hello, and then that
// hello's admission. It accepts a base connection and waits for the
// connection's first message within the handshake budget. Its first
// datagram must be a control message: anything else (late data after
// the peer was freed, a stray datagram), or none, drops the peer and the
// loop goes on. With one, it waits for a place within the same budget,
// starts the loop's next turn, and admits the connection itself: it
// negotiates it and queues what it assembled. Waiting for the first
// message on the loop costs nothing on a datagram listener, which hands
// a connection over with its first datagram, and leaves a connection
// that never speaks without a place. The loop ends when the base
// listener fails. A failed handshake poisons only that peer connection
// (the failure was already reported to the peer in the ServerHello when
// possible).
func (l *negotiatedListener) run() {
	for {
		raw, err := l.base.Accept(l.ctx)
		if err != nil {
			l.err = err
			close(l.failed)
			l.admissions.Done()
			return
		}
		ctx, cancel := context.WithTimeout(l.ctx, handshakeBudget)
		tc := newTaggedConn(raw)
		if msg, err := tc.firstCtrl(ctx); err == nil {
			select {
			case l.slots <- struct{}{}:
				l.admissions.Add(1)
				go l.turn()
				conn, err := l.ep.accept(ctx, tc, msg, l)
				cancel()
				if err != nil || conn == nil {
					raw.Close() // failed, or it goes on at the rendezvous
				}
				l.queueOrClose(conn, conn != nil)
				return
			case <-ctx.Done(): // the client gave up, or Close
			}
		}
		cancel()
		raw.Close()
	}
}

// admit takes a place for an admission by ticket, without waiting. It
// reports false when the listener is closed or has no place.
func (l *negotiatedListener) admit() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	select {
	case l.slots <- struct{}{}:
		l.admissions.Add(1)
		return true
	default:
		return false
	}
}

// queueOrClose ends an admission: when ok, it queues c for Accept in the
// place the admission took, unless the listener is closed; otherwise it
// closes c, if there is one, and gives the place back.
func (l *negotiatedListener) queueOrClose(c Conn, ok bool) {
	defer l.admissions.Done()
	if hook := queueHook.Load(); hook != nil && ok {
		(*hook)()
	}
	queued := false
	l.mu.Lock()
	if ok && !l.closed {
		select {
		case l.conns <- c: // its place keeps room
			queued = true
		default:
		}
	}
	l.mu.Unlock()
	if !queued {
		if c != nil {
			c.Close()
		}
		<-l.slots
	}
}

// queueHook, when set, runs in queueOrClose before a connection is
// queued, after its answer (a ServerHello or a resume answer). Tests
// hold an admission there.
var queueHook atomic.Pointer[func()]

func (l *negotiatedListener) Addr() Addr { return l.base.Addr() }

// Close stops accepting, cancels and joins the accept loop and every
// admission, closes the connections negotiated and not yet accepted, and
// forgets the tickets issued through this listener.
func (l *negotiatedListener) Close() error {
	var err error
	l.close.Do(func() {
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		close(l.done)
		err = l.base.Close()
		l.cancel()
		l.admissions.Wait()
		for drained := false; !drained; {
			select {
			case c := <-l.conns:
				c.Close()
			default:
				drained = true
			}
		}
		l.ep.issued.dropIf(func(st serverTicket) bool { return st.l == l })
	})
	return err
}

// accept performs the server half of negotiation on tc, whose first
// message, msg, is a control message, and which came through l. Any
// message but a ClientHello fails it. When the ServerHello carries a
// rendezvous ticket, the handshake ends with it: accept returns no
// connection and no error, and the connection reaches Accept through the
// ResumeSink.
func (e *Endpoint) accept(ctx context.Context, tc *taggedConn, msg []byte, l *negotiatedListener) (Conn, error) {
	neg := e.negotiator(tc.raw.LocalAddr().Host)
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
		Deferred: telemetry.Detailf("peer=%s host=%s spec=%v offers=%d").
			Str(ch.Name).Str(ch.Host).Value(ch.Spec).Int(len(ch.Offers)),
	})

	sh := &ServerHello{Nonce: ch.Nonce, Name: e.name, Host: neg.host}
	resolved, derr := decide(ctx, ch, tab, neg)
	if derr != nil {
		sh.Err = derr.Error()
	} else {
		sh.Stack = resolved
		if t, ok := e.rendezvousTicket(l, neg, resolved); ok {
			sh.Ticket = t[:]
		}
	}
	reply := encodeHello(sh)
	if err := tc.sendTagged(ctx, tagCtrl, reply); err != nil {
		return nil, fmt.Errorf("%w: send server hello: %v", ErrNegotiation, err)
	}
	if derr != nil {
		e.trace(SideServer, telemetry.TraceFailed, telemetry.TraceEvent{Detail: derr.Error()})
		return nil, derr
	}
	if sh.Ticket != nil {
		return nil, nil // a retransmitted hello is negotiated again
	}
	// Duplicate ClientHellos (client retransmits over lossy links) are
	// answered with the cached reply by the tagged conn's control loop.
	tc.setCtrlResponder(ch.Nonce, reply)

	conn, err := e.assemble(ctx, neg.snap, resolved, SideServer, nil, tc.dataConn())
	if err != nil {
		e.trace(SideServer, telemetry.TraceFailed, telemetry.TraceEvent{Detail: err.Error()})
		return nil, err
	}
	e.trace(SideServer, telemetry.TraceConnected, telemetry.TraceEvent{
		Deferred: telemetry.Detailf("%v").Value((*stackDesc)(&sh.Stack)),
	})
	e.traceCold(SideServer, "")
	return conn, nil
}

// stackDesc is a resolved stack as a trace event's deferred Detail.
type stackDesc []ResolvedNode

func (s *stackDesc) String() string { return describeStack(*s) }

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

// assemble instantiates the local side of a resolved stack over one base
// connection or several (a group): Init then Wrap for every chunnel this
// side runs, outermost chunnel wrapped last so that application sends
// enter the stack at the top. Implementations come from snap, the
// snapshot the connection negotiated from. A base is the mux's data
// channel on a negotiated connection, and the Resumer's connection on a
// spliced or resumed one (resumed is set), whose innermost node is not
// wrapped: base already is what its Wrap would return. Over a group, a
// node wraps every base, or, when it is a MultiWrapper, collapses them
// into one; a group that nothing collapsed receives through a FanIn.
func (e *Endpoint) assemble(ctx context.Context, snap *regSnapshot, stack []ResolvedNode, side Side, resumed *resumption, bases ...Conn) (Conn, error) {
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

	m := new(managedConn)
	conns := bases
	if resumed != nil && resumed.issued {
		m.view = lease{Datapath: Resolve(conns[0]), base: conns[0], ep: e, side: side, next: resumed.next, addr: resumed.addr}
		conns[0] = &m.view
	}
	// Batch-awareness bookkeeping: a SendBufs burst entering the top of
	// the stack stays vectored only while every layer on the way down
	// implements BatchConn natively; the first per-message layer breaks
	// it into a SendBuf loop. The instrumented wrappers forward the
	// vectored path transparently, so awareness is judged on the chunnel
	// connections themselves (before instrumentation), innermost first:
	// vectored counts the aware layers above the last one that is not.
	depth, vectored := 0, 0
	judge := func(c Conn) {
		depth++
		if _, aware := c.(BatchConn); aware {
			vectored++
		} else {
			vectored = 0
		}
	}
	judge(conns[0])
	// The base of the instrumented stack: the mux data channel, recorded
	// under the pseudo-chunnel type "transport" so readouts attribute
	// wire time separately from every chunnel above it.
	baseNet := conns[0].LocalAddr().Net
	baseMetrics := e.tel.Conn("transport", baseNet)
	baseSpan := spanRing.Handle("transport", baseNet)
	if len(conns) == 1 {
		m.base = instrumentedConn{Datapath: Resolve(conns[0]), m: baseMetrics, span: baseSpan}
		conns[0] = &m.base
	} else {
		instrument(conns, baseMetrics, baseSpan)
	}
	// layers collects each instrumented layer innermost-first; the
	// managedConn derives per-hop exclusive latency (HopStats) from
	// adjacent layers' inclusive histograms.
	layers := append(m.layersIn[:0], baseMetrics)
	active := m.activeIn[:0]
	// A failure closes what the stack has wrapped, as the connection's
	// Close would; the bases alone are the caller's to close.
	wrapped := false
	fail := func(err error) (Conn, error) {
		if wrapped {
			for _, c := range conns {
				c.Close()
			}
		}
		teardownAll(ctx, active, e)
		return nil, err
	}
	for i := len(stack) - 1; i >= 0; i-- {
		rn := stack[i]
		if !rn.RunsAt(side) {
			continue
		}
		impl, ok := snap.byName[rn.ImplName]
		if !ok {
			// The peer selected an implementation we cannot instantiate.
			return fail(fmt.Errorf("%w: %q not in local registry", ErrNoImplementation, rn.ImplName))
		}
		if err := impl.Init(ctx, e.env, rn.Args); err != nil {
			return fail(fmt.Errorf("bertha: init %q: %w", rn.ImplName, err))
		}
		if resumed != nil && i == len(stack)-1 {
			active = append(active, activeImpl{impl: impl, claim: rn.ClaimID})
			continue
		}
		var c Conn
		var err error
		if mw, ok := impl.(MultiWrapper); ok && len(conns) > 1 {
			if c, err = mw.WrapMulti(ctx, slices.Clone(conns), rn.Args, rn.Params, side, e.env); err == nil {
				conns = append(conns[:0], c)
			}
		} else {
			for ci := 0; ci < len(conns) && err == nil; ci++ {
				if c, err = impl.Wrap(ctx, conns[ci], rn.Args, rn.Params, side, e.env); err == nil {
					conns[ci], wrapped = c, true
				}
			}
		}
		if err != nil {
			impl.Teardown(ctx, e.env)
			return fail(fmt.Errorf("bertha: wrap %q: %w", rn.ImplName, err))
		}
		wrapped = true
		judge(conns[0])
		// Each resolved node gets an instrumented wrapper above it,
		// preallocated per (type, impl) pair: sends/recvs/bytes/errors
		// and inclusive latency, at zero allocations per message.
		layerM := e.tel.Conn(rn.Type, rn.ImplName)
		instrument(conns, layerM, spanRing.Handle(rn.Type, rn.ImplName))
		layers = append(layers, layerM)
		active = append(active, activeImpl{impl: impl, claim: rn.ClaimID})
	}
	conn := conns[0]
	if len(conns) > 1 {
		// The fan layer sends every message to each peer in turn.
		conn = fanConn{NewFanIn(slices.Clone(conns))}
		depth, vectored = depth+1, 0
	}
	// The vectored segment is the contiguous batch-aware run from the
	// top of the stack down: that is how deep an application burst
	// travels before degrading to per-message sends.
	e.trace(side, telemetry.TraceBatchPath, telemetry.TraceEvent{
		Deferred: telemetry.Detailf("vectored %d/%d layers from the top").Int(vectored).Int(depth),
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
	m.Datapath, m.ep, m.side, m.active, m.layers, m.openConns = Resolve(conn), e, side, active, layers, openConns
	return m, nil
}

// instrument puts an instrumented wrapper over every connection of
// conns, in place.
func instrument(conns []Conn, m *telemetry.ConnMetrics, h tracing.Handle) {
	for i, c := range conns {
		conns[i] = InstrumentTraced(c, m, h)
	}
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
// service must not wedge shutdown. It is the only bound teardown needs —
// no Teardown reads its context — so a connection with no claim to
// release builds none.
const teardownTimeout = 5 * time.Second

// releasesClaims reports whether closing a connection running active
// releases a discovery claim.
func (e *Endpoint) releasesClaims(active []activeImpl) bool {
	if e.discovery == nil {
		return false
	}
	for _, a := range active {
		if a.claim != 0 {
			return true
		}
	}
	return false
}

// managedConn is the top of a negotiated stack: the single place where
// the application's Send(p) and Recv() become the Buf path (every other
// entry point it inherits from the stack below), and where closing runs
// implementation teardown and resource release.
//
// Over one base, it holds what assemble adds besides the chunnels' own
// connections and their instrumented wrappers: the lease a resumed
// connection runs on, the base's instrumented wrapper, and the backing
// arrays of active and layers for a stack of up to inlineLayers nodes.
// A resumed stack's one node is the Resumer's, which wraps nothing, so
// a resumed connection is this one allocation.
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

	view     lease            // the base, when a resumed connection runs on a lease
	base     instrumentedConn // the base's instrumented wrapper
	activeIn [inlineLayers]activeImpl
	layersIn [inlineLayers + 1]*telemetry.ConnMetrics
}

// inlineLayers is how many nodes' bookkeeping a managedConn holds in
// place; a longer stack's spills to the heap.
const inlineLayers = 4

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
		ctx := context.Background()
		if m.ep.releasesClaims(m.active) {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, teardownTimeout)
			defer cancel()
		}
		teardownAll(ctx, m.active, m.ep)
		m.ep.trace(m.side, telemetry.TraceTeardown, telemetry.TraceEvent{
			Deferred: telemetry.Detailf("%d impls torn down").Int(len(m.active)),
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
