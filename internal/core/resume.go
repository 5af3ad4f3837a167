package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// Resumption (DESIGN §10 "Splice rendezvous"). A stack whose innermost
// node's implementation is a Resumer runs on a base connection of that
// implementation's own, and it is established there, by a ticket. The
// server's cold ServerHello carries one, and ends the handshake on the
// network leg; the client presents it on the Resumer's connection:
//
//	client                                   server
//	  |--- [ctrl, msgResume, ticket] -------->|  take the ticket (and, for
//	  |                                        |  a resume, check the
//	  |                                        |  registry and discovery)
//	  |<-- [ctrl, msgResumeOK, ticket, next] -|  queue for Accept
//
// and both sides assemble the stack over that connection. The next
// ticket, issued when the stack holds no discovery claim, lets the
// client's next Connect to the same address resume the stack the same
// way without a hello, on the same connection: the client keeps it with
// the ticket (lease.go, the standing association). A rejection ([ctrl,
// msgResumeRejected, ticket]), a timeout or a failed dial fails a
// spliced Connect, and sends a resume down the cold path on the raw
// connection.

// Resume control messages. They travel on the Resumer's connection,
// whose first message is always a resume request.
const (
	msgResume         = 4
	msgResumeOK       = 5
	msgResumeRejected = 6
)

const (
	// ticketLen is a ticket's size: 16 bytes from crypto/rand.
	ticketLen = 16
	// ticketTTL is how long a ticket may be presented after it was
	// issued.
	ticketTTL = 30 * time.Second
	// maxTickets bounds the tickets one endpoint holds on each side.
	maxTickets = 1024
)

// Counters the resuming (client) endpoint records: connections
// established by a ticket, and attempts that went cold instead.
const (
	resumesCounter        = "core/resumes"
	resumeRejectedCounter = "core/resume_rejected"
)

// ticket is a single-use resumption ticket.
type ticket [ticketLen]byte

func newTicket() ticket {
	var t ticket
	if _, err := rand.Read(t[:]); err != nil {
		panic("bertha: crypto/rand unavailable: " + err.Error())
	}
	return t
}

// Resumer is implemented by an implementation that moves a stack's data
// path onto a base connection of its own when it is the innermost node
// (localfast's IPC splice). Every connection of such a stack runs on
// that connection directly, established there by a ticket, so the
// node's Wrap is skipped on both sides; Init and Teardown run as usual.
type Resumer interface {
	// ResumeDial opens, on the client, the connection a spliced or
	// resumed connection runs on, from the parameters the node
	// negotiated. The client keeps that connection for its next resume
	// to the same server, and dials again only when it kept none.
	ResumeDial(ctx context.Context, params []wire.Value, env *Env) (Conn, error)
}

// DirectConn is implemented by a transport's own connections: nothing
// sits between the caller and the socket, so what is sent goes to
// RemoteAddr and nobody else sees it. Connect resumes only over a direct
// raw connection. A resume never uses raw (the stack is rebuilt over the
// Resumer's own connection), so over a wrapper — a loss shim, a tracer
// timing the handshake, a tunnel that maps addresses — it would bypass
// what the wrapper is there for, and present the ticket to whichever
// server the address names rather than the one the wrapper reaches. A
// connection through a wrapper is negotiated on the wrapper, every time.
type DirectConn interface {
	Conn
	// Direct reports whether the connection is direct.
	Direct() bool
}

// isDirect reports whether conn is a direct connection.
func isDirect(conn Conn) bool {
	d, ok := conn.(DirectConn)
	return ok && d.Direct()
}

// EnvResume is the Env key under which a listening endpoint provides its
// ResumeSink. A Resumer's server side hands it every connection it
// accepts, with that connection's first message.
const EnvResume = "core:resume"

// ResumeSink takes a connection whose first message, req, should be a
// resume request. It owns conn from then on: it queues the connection
// for the listener the ticket came through, or answers with a rejection
// and closes it. It does not keep req, which the caller may reuse once
// the sink returns.
type ResumeSink func(conn Conn, req []byte)

// On the Resumer's connection a resume request is [tagCtrl, msgResume,
// ticket], and the server's answer [tagCtrl, msgResumeRejected, ticket]
// or [tagCtrl, msgResumeOK, ticket] followed by the next ticket when one
// was issued. The answer names the ticket it answers: a socket kept from
// one connection to the next can still hold the previous connection's
// messages, or a rejection of a stray datagram, and on a resumed
// connection application data is untagged, so two bytes of it could
// read as an answer.

// resumeRequest is the request a client presents its ticket in, in a
// pooled Buf.
func resumeRequest(t ticket) *wire.Buf {
	b := wire.NewBuf(0, 2+ticketLen)
	p := b.Bytes()
	p[0], p[1] = tagCtrl, msgResume
	copy(p[2:], t[:])
	return b
}

// decodeResume reads a resume request.
func decodeResume(msg []byte) (ticket, error) {
	var t ticket
	if len(msg) != 2+ticketLen || msg[0] != tagCtrl || msg[1] != msgResume {
		return t, fmt.Errorf("%w: malformed resume request", ErrNegotiation)
	}
	copy(t[:], msg[2:])
	return t, nil
}

// resumeAnswer is the server's answer to the request that presented
// ticket: whether it resumed the connection, and the next ticket if it
// issued one.
type resumeAnswer struct {
	presented ticket
	ok        bool
	next      ticket
	issued    bool
}

// buf encodes a in a pooled Buf.
func (a resumeAnswer) buf() *wire.Buf {
	n := 2 + ticketLen
	if a.ok && a.issued {
		n += ticketLen
	}
	b := wire.NewBuf(0, n)
	p := b.Bytes()
	p[0], p[1] = tagCtrl, msgResumeRejected
	if a.ok {
		p[1] = msgResumeOK
	}
	copy(p[2:], a.presented[:])
	if a.ok && a.issued {
		copy(p[2+ticketLen:], a.next[:])
	}
	return b
}

// decodeResumeAnswer reads the server's answer.
func decodeResumeAnswer(msg []byte) (resumeAnswer, error) {
	var a resumeAnswer
	if len(msg) >= 2+ticketLen && msg[0] == tagCtrl {
		copy(a.presented[:], msg[2:])
		switch {
		case len(msg) == 2+ticketLen && msg[1] == msgResumeRejected:
			return a, nil
		case len(msg) == 2+ticketLen && msg[1] == msgResumeOK:
			a.ok = true
			return a, nil
		case len(msg) == 2+2*ticketLen && msg[1] == msgResumeOK:
			a.ok, a.issued = true, true
			copy(a.next[:], msg[2+ticketLen:])
			return a, nil
		}
	}
	return resumeAnswer{}, fmt.Errorf("%w: malformed resume answer", ErrNegotiation)
}

// ticketStore holds values by key, each until ticketTTL after it was
// put, and at most maxTickets of them. A ring beside the map keeps the
// keys of the last maxTickets puts, and a put overwrites the oldest.
// The TTL is constant, so the oldest put is also the nearest expiry: a
// put never fails, and nothing scans the store or runs on a timer.
// onDrop, when set, is given every value the store itself lets go of: one
// a put overwrote or evicted, or one dropIf removed. A value take
// returns is the caller's. None of put, take and update allocates once
// the map has room, as long as an entry fits the 128 bytes a Go map
// holds in place (a client ticket's is 120).
type ticketStore[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]ticketEntry[V]
	// ring[n%maxTickets] is the key of put number n; puts counts them.
	ring   []K
	puts   uint64
	onDrop func(V)
}

type ticketEntry[V any] struct {
	v       V
	expires int64  // on the stores' clock (sinceEpoch)
	put     uint64 // the number of the put that stored it
}

// epoch is the origin of the stores' clock. An expiry is kept as an
// offset from it, a word where a time.Time takes three.
var epoch = time.Now()

// sinceEpoch reads t on the stores' clock: monotonic when t is.
func sinceEpoch(t time.Time) int64 { return int64(t.Sub(epoch)) }

// put stores v under k, in place of the oldest put when the ring is
// full. That one is gone already if it was taken, or if its key was put
// again since.
func (s *ticketStore[K, V]) put(k K, v V, now time.Time) {
	var gone [2]V
	n := 0
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]ticketEntry[V])
	}
	if len(s.ring) < maxTickets {
		s.ring = append(s.ring, k)
	} else {
		slot := &s.ring[s.puts%maxTickets]
		if e, ok := s.m[*slot]; ok && e.put == s.puts-maxTickets {
			delete(s.m, *slot)
			gone[n], n = e.v, n+1
		}
		*slot = k
	}
	if e, ok := s.m[k]; ok {
		gone[n], n = e.v, n+1
	}
	s.m[k] = ticketEntry[V]{v: v, expires: sinceEpoch(now) + int64(ticketTTL), put: s.puts}
	s.puts++
	s.mu.Unlock()
	s.dropped(gone[:n])
}

// dropped gives vs to onDrop, outside the lock.
func (s *ticketStore[K, V]) dropped(vs []V) {
	if s.onDrop == nil {
		return
	}
	for _, v := range vs {
		s.onDrop(v)
	}
}

// take removes and returns the value under k. found reports whether
// there was one; live whether it had not expired.
func (s *ticketStore[K, V]) take(k K, now time.Time) (v V, found, live bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.m[k]
	if !found {
		return v, false, false
	}
	delete(s.m, k)
	return e.v, true, sinceEpoch(now) < e.expires
}

// update replaces the value under k, if there is one, with what f makes
// of it, unless f reports false, and reports whether it did. f takes and
// gives the value, not a pointer into the entry, which would move the
// entry to the heap.
func (s *ticketStore[K, V]) update(k K, f func(V) (V, bool)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[k]
	if !ok {
		return false
	}
	if e.v, ok = f(e.v); ok {
		s.m[k] = e
	}
	return ok
}

// dropIf removes every value drop reports true for.
func (s *ticketStore[K, V]) dropIf(drop func(V) bool) {
	var gone []V
	s.mu.Lock()
	for k, e := range s.m {
		if drop(e.v) {
			delete(s.m, k)
			gone = append(gone, e.v)
		}
	}
	s.mu.Unlock()
	s.dropped(gone)
}

// serverTicket is what a server remembers with a ticket: everything the
// decision was made from, to tell whether it still holds.
type serverTicket struct {
	l     *negotiatedListener
	snap  *regSnapshot
	stack []ResolvedNode
	// types is the discovery query decide made, and discovered its
	// answer; both nil when the endpoint has no discovery client.
	types      []string
	discovered []ImplOffer
	// rendezvous marks the ticket a ServerHello carried: the decision
	// was made just now, so nothing of it is checked again.
	rendezvous bool
}

// clientTicket is what a client keeps to resume a connection.
type clientTicket struct {
	t       ticket
	snap    *regSnapshot
	stack   []ResolvedNode
	resumer Resumer
	// discovered is what the client's own discovery query added to its
	// offers (discoveredOffers), which a resume asks again.
	discovered []ImplOffer
	// sock is the Resumer's connection the ticket's connection ran on,
	// kept to present the ticket on (the standing association); nil
	// while that connection is open, or when it did not keep it. It
	// lives as long as the ticket: whatever takes the ticket from the
	// store owns it, and the store closes it when it lets the ticket go.
	sock Conn
}

// drop closes the socket ct keeps, if any.
func (ct clientTicket) drop() {
	if ct.sock != nil {
		ct.sock.Close()
	}
}

// keepSocket gives sock to the ticket held for addr when that is t and
// keeps none yet, and reports whether it did.
func (e *Endpoint) keepSocket(addr string, t ticket, sock Conn) bool {
	return e.held.update(addr, func(ct clientTicket) (clientTicket, bool) {
		if ct.t != t || ct.sock != nil {
			return ct, false
		}
		ct.sock = sock
		return ct, true
	})
}

// resumerOf returns the Resumer of a resolved stack's innermost node: its
// implementation in snap, when that is a Resumer.
func resumerOf(snap *regSnapshot, stack []ResolvedNode) Resumer {
	if len(stack) == 0 {
		return nil
	}
	r, _ := snap.byName[stack[len(stack)-1].ImplName].(Resumer)
	return r
}

// resumable reports whether a spliced stack may be resumed: it holds no
// discovery claim, which its first connection releases on close.
func resumable(stack []ResolvedNode) bool {
	for _, rn := range stack {
		if rn.ClaimID != 0 {
			return false
		}
	}
	return true
}

// rendezvousTicket stores the ticket a ServerHello carries for a stack
// the server just negotiated through l, and returns it; ok is false when
// the stack's innermost node is no Resumer, and the connection is
// assembled on the network leg instead.
func (e *Endpoint) rendezvousTicket(l *negotiatedListener, neg *negotiator, stack []ResolvedNode) (t ticket, ok bool) {
	if resumerOf(neg.snap, stack) == nil {
		return t, false
	}
	return e.storeTicket(serverTicket{l: l, snap: neg.snap, stack: stack, types: neg.queried,
		discovered: neg.discovered, rendezvous: true}), true
}

func (e *Endpoint) storeTicket(st serverTicket) ticket {
	t := newTicket()
	e.issued.put(t, st, time.Now())
	return t
}

// resume establishes a connection from the ticket held for raw's remote
// address, if there is one and raw is direct. It returns nil and why
// when the connection must be negotiated cold instead ("" when there was
// no ticket to try); raw is untouched then. On success it has closed
// raw.
func (e *Endpoint) resume(ctx context.Context, raw Conn, snap *regSnapshot, host string) (Conn, string) {
	if !isDirect(raw) {
		return nil, "" // the ticket stays for a direct connection
	}
	addr := raw.RemoteAddr().Addr
	ct, found, live := e.held.take(addr, time.Now())
	why := ""
	switch {
	case !found:
		return nil, ""
	case !live:
		why = "ticket expired"
	case ct.snap != snap:
		why = "registry changed"
	case !slices.Equal(e.discoveredOffers(ctx, host), ct.discovered):
		why = "discovery changed"
	}
	if why != "" {
		ct.drop()
		return nil, why
	}
	conn, why := e.present(ctx, addr, ct)
	if conn == nil {
		e.tel.Counter(resumeRejectedCounter).Inc()
		return nil, why
	}
	raw.Close()
	e.tel.Counter(resumesCounter).Inc()
	e.trace(SideClient, telemetry.TraceResume, telemetry.TraceEvent{Detail: "resumed"})
	return conn, ""
}

// rendezvous establishes the connection a ServerHello spliced: it
// presents the hello's ticket on the Resumer's connection. The server
// freed its network peer when it sent the hello, so a failure here
// fails the connection.
func (e *Endpoint) rendezvous(ctx context.Context, addr string, snap *regSnapshot, sh *ServerHello, discovered []ImplOffer) (Conn, error) {
	r := resumerOf(snap, sh.Stack)
	if r == nil || len(sh.Ticket) != ticketLen {
		return nil, fmt.Errorf("%w: the server spliced a stack this side cannot join", ErrNegotiation)
	}
	ct := clientTicket{snap: snap, stack: sh.Stack, resumer: r, discovered: discovered}
	copy(ct.t[:], sh.Ticket)
	conn, why := e.present(ctx, addr, ct)
	if conn == nil {
		return nil, fmt.Errorf("%w: splice rendezvous: %s", ErrNegotiation, why)
	}
	return conn, nil
}

// present presents ct's ticket on the connection ct keeps, or on a new
// dial of the Resumer's when it keeps none, and, once the server accepts
// it, assembles ct's stack over that connection and keeps the next ticket
// for addr if one was issued. It returns nil and why when the connection
// was not established. A kept connection whose server end is gone (the
// request cannot be sent, or the connection reports itself closed before
// an answer) is closed, and the ticket presented once more on a new dial:
// a ticket is single use, so a server that did take it rejects it there.
func (e *Endpoint) present(ctx context.Context, addr string, ct clientTicket) (Conn, string) {
	if ct.sock != nil {
		conn, why, gone := e.presentOn(ctx, addr, ct, ct.sock)
		if !gone {
			return conn, why
		}
		ct.sock = nil
	}
	base, err := ct.resumer.ResumeDial(ctx, ct.stack[len(ct.stack)-1].Params, e.env)
	if err != nil {
		return nil, "resume dial failed"
	}
	conn, why, _ := e.presentOn(ctx, addr, ct, base)
	return conn, why
}

// presentOn presents ct's ticket on base. It reads until the answer that
// names the ticket, within one hello attempt, and releases what it skips.
// It closes base when the connection is not established; gone reports
// that base was ct's kept connection and its server end is gone.
func (e *Endpoint) presentOn(ctx context.Context, addr string, ct clientTicket, base Conn) (conn Conn, why string, gone bool) {
	kept := base == ct.sock
	dp := Resolve(base)
	if err := dp.SendBuf(ctx, resumeRequest(ct.t)); err != nil {
		base.Close()
		return nil, "resume request not sent", kept
	}
	wait, cancel := attemptCtx(ctx)
	defer cancel()
	var a resumeAnswer
	for {
		b, err := dp.RecvBuf(wait)
		if err != nil {
			base.Close()
			return nil, "resume not answered", kept && errors.Is(err, ErrClosed)
		}
		a, err = decodeResumeAnswer(b.Bytes())
		b.Release()
		if err == nil && a.presented == ct.t {
			break
		}
		// The previous connection's, or an answer to a stray datagram.
	}
	if !a.ok {
		base.Close()
		return nil, "resume rejected", false
	}
	conn, err := e.assemble(ctx, ct.snap, ct.stack, SideClient, &resumption{issued: a.issued, next: a.next, addr: addr}, base)
	if err != nil {
		base.Close()
		return nil, "resumed stack not assembled", false
	}
	if a.issued {
		ct.t, ct.sock = a.next, nil
		e.held.put(addr, ct, time.Now())
	}
	return conn, "", false
}

// takeResume is the endpoint's ResumeSink. It runs on the Resumer's
// accept loop, or on the lease that hands a returning client's socket
// on, which have no context to give: the resume, its answer included, is
// bounded like one hello attempt. Once the ticket names its listener, it
// takes a place there (admit) before it assembles anything, and ends in
// the listener's queueOrClose.
func (e *Endpoint) takeResume(conn Conn, req []byte) {
	ctx := newLateCtx(helloTimeout)
	dp := Resolve(conn)
	t, err := decodeResume(req) // t is zero when malformed
	reject := func(why string) {
		// Traced before it is answered: a client that reads the trace
		// after its rejection finds the reason there.
		e.trace(SideServer, telemetry.TraceResume, telemetry.TraceEvent{
			Deferred: telemetry.Detailf("rejected: %s").Str(why),
		})
		_ = dp.SendBuf(ctx, resumeAnswer{presented: t}.buf())
		conn.Close()
	}
	if err != nil {
		reject("malformed request")
		return
	}
	st, found, live := e.issued.take(t, time.Now())
	why := ""
	switch {
	case !found:
		why = "unknown ticket"
	case !live:
		why = "ticket expired"
	case st.rendezvous: // decided just now
	case st.snap != e.registry.snapshot():
		why = "registry changed"
	case e.discovery != nil:
		if fresh, err := e.discovery.Query(ctx, st.types); err != nil || !slices.Equal(fresh, st.discovered) {
			why = "discovery changed"
		}
	}
	if why != "" {
		reject(why)
		return
	}
	l := st.l
	if !l.admit() {
		reject("listener closed or full")
		return
	}
	// With a next ticket, the connection runs on a lease that ends at
	// the request presenting it: the client's next connection, on the
	// socket it keeps.
	spliced := st.rendezvous
	a := resumeAnswer{presented: t, ok: true, issued: resumable(st.stack)}
	if a.issued {
		st.rendezvous = false
		a.next = e.storeTicket(st)
	}
	c, err := e.assemble(ctx, st.snap, st.stack, SideServer, &resumption{issued: a.issued, next: a.next}, conn)
	if err != nil {
		e.issued.take(a.next, time.Now()) // none when not issued
		reject("stack not assembled")
		l.queueOrClose(nil, false)
		return
	}
	// The answer goes first, so that it reaches the client before
	// anything the application sends on c.
	sent := dp.SendBuf(ctx, a.buf()) == nil
	l.queueOrClose(c, sent)
	if spliced {
		stack := stackDesc(st.stack)
		e.trace(SideServer, telemetry.TraceConnected, telemetry.TraceEvent{
			Deferred: telemetry.Detailf("%v").Value(&stack),
		})
		e.traceCold(SideServer, "")
		return
	}
	e.trace(SideServer, telemetry.TraceResume, telemetry.TraceEvent{Detail: "resumed"})
}

// resumption is how a ticket established a connection: over the
// Resumer's connection, and, when the server issued a next ticket, on a
// lease of it for that ticket (lease.go).
type resumption struct {
	issued bool
	next   ticket
	// addr, on a client, is the server address next resumes.
	addr string
}

// discoveredOffers is what a client's discovery query adds to its
// offers: the advertised implementations bound to its own host. It is
// nil without a discovery client, for an empty stack, and when the query
// fails.
func (e *Endpoint) discoveredOffers(ctx context.Context, host string) []ImplOffer {
	if e.discovery == nil || e.stack.Empty() {
		return nil
	}
	disc, err := e.discovery.Query(ctx, e.stackTypes)
	if err != nil {
		return nil
	}
	var out []ImplOffer
	for _, o := range disc {
		if o.Host != "" && o.Host == host {
			out = append(out, o)
		}
	}
	return out
}

// attemptCtx bounds one wait for the peer's answer by helloTimeout. A
// ctx that ends sooner bounds the attempt by itself, and the wait needs
// no timer of its own.
func attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if d, ok := ctx.Deadline(); ok && time.Until(d) <= helloTimeout {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, helloTimeout)
}
