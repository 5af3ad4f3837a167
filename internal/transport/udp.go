package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// MaxDatagram is the largest message the socket transports accept. It
// stays under the UDP payload ceiling with headroom for chunnel headers.
const MaxDatagram = 60000

// ListenUDP binds a demultiplexing datagram listener on bind (e.g.
// "127.0.0.1:0"), served by the sharded reactor runtime (reactor.go).
// hostID labels the listener's host for locality checks.
func ListenUDP(hostID, bind string) (core.Listener, error) {
	laddr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bind, err)
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp %q: %w", bind, err)
	}
	addr := core.Addr{Net: "udp", Host: hostID, Addr: pc.LocalAddr().String()}
	return newDemuxListener(udpPC{pc}, addr), nil
}

// DialUDP returns a datagram connection to raddr. A literal address
// ("127.0.0.1:9000", "[::1]:9000") is parsed in place; only a hostname
// goes through the resolver, and a resolution error is DialUDP's. The
// socket is opened on first use: the first send, receive or LocalAddr
// makes it, connects it and registers it with the poller, and returns
// the error when that fails. A connection closed before its first use
// never had a socket; a resumed core.Endpoint.Connect closes the raw
// connection it was handed that way. A UDP connect(2) sends nothing, so
// opening late changes nothing on the wire.
func DialUDP(hostID, raddr string) (core.Conn, error) {
	ap, err := netip.ParseAddrPort(raddr)
	if err != nil {
		ua, rerr := net.ResolveUDPAddr("udp", raddr)
		if rerr != nil {
			return nil, fmt.Errorf("transport: resolve %q: %w", raddr, rerr)
		}
		ap = ua.AddrPort()
	}
	return &socketConn{
		raddr:  ap,
		local:  core.Addr{Net: "udp", Host: hostID},
		remote: core.Addr{Net: "udp", Host: "", Addr: raddr},
		tel:    countersFor("udp"),
	}, nil
}

// socketConn adapts a connected net datagram socket to core.Conn. The
// socket is opened once, by the first call that needs it (ready), and
// everything only a live socket uses is allocated then, in socketIO: a
// connection that is closed unused is this small struct and nothing
// else.
type socketConn struct {
	// opened is set once the socket is open: the one atomic load every
	// call that touches the socket makes first (ready).
	opened atomic.Bool
	// *socketIO is the live socket's state, nil until open makes it. It
	// is written once, under omu and before opened is set, so a call that
	// has seen opened reads it without a lock.
	*socketIO
	// omu orders open against Close. unusable, which it guards, is why
	// the socket will not open: the error its dial returned, or
	// core.ErrClosed once the connection was closed unopened.
	omu      sync.Mutex
	unusable error
	// raddr is where a UDP connection's socket connects when it opens.
	raddr netip.AddrPort
	// local is complete once the socket is open: a UDP socket's port is
	// the kernel's choice.
	local, remote core.Addr
	// tel is the transport kind's shared datagram counters, resolved at
	// construction (constructors must set it).
	tel       *netCounters
	closeOnce sync.Once
	closeErr  error
}

// socketIO is an open socketConn's socket and what only a live socket
// needs: the locks, deadlines and batch scratch of both directions and
// the read-ahead queue, some 14 KB.
type socketIO struct {
	conn net.Conn
	// wmu serializes writes *and* write-deadline management: the socket
	// has one write deadline, so concurrent senders with different
	// context deadlines must take turns arming it (wdl).
	//
	// The batch path takes wmu exactly once per burst: SendBufs arms the
	// deadline and transmits the whole burst (one sendmmsg on linux, a
	// write loop elsewhere) — per-message locking would interleave
	// concurrent bursts and pay the acquisition n times.
	wmu sync.Mutex
	wdl stickyDeadline
	// sendmm/recvmm hold the platform batch-syscall state (cached raw
	// conn, scratch header arrays). sendmm is guarded by wmu; recvmm,
	// the read-ahead queue rq and the read deadline rdl by the receiver
	// role rsem (lockRecv), which serializes receivers: one of them at a
	// time reads the socket, the others find what it read ahead. The role
	// is a one-slot channel, not a mutex, because its holder parks in the
	// socket for as long as its context allows and a waiter with a
	// shorter context must be able to give up.
	sendmm mmsgState
	rsem   chan struct{}
	rdl    stickyDeadline
	recvmm mmsgState
	rq     recvQueue
	// rpark is the cancellation state of the receive in flight, also
	// guarded by the receiver role.
	rpark recvPark
}

// ready is the open-once fast path every call that touches the socket
// takes first: one atomic load once the socket is open, else open.
func (s *socketConn) ready() error {
	if s.opened.Load() {
		return nil
	}
	return s.open()
}

// open makes the connection's socket unless it is open already or will
// not open. A failed open fails every later call with its error.
func (s *socketConn) open() error {
	s.omu.Lock()
	defer s.omu.Unlock()
	if s.opened.Load() {
		return nil
	}
	if s.unusable != nil {
		return s.unusable
	}
	var c net.Conn
	var err error
	if s.remote.Net == "unix" {
		c, err = s.dialUnix()
	} else {
		c, err = s.dialUDP()
	}
	if err != nil {
		s.unusable = err
		return err
	}
	s.attach(c)
	return nil
}

// dialUDP makes a UDP connection's socket, connected to raddr, and
// completes the local address with the port the kernel bound.
func (s *socketConn) dialUDP() (net.Conn, error) {
	uc, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(s.raddr))
	if err != nil {
		return nil, fmt.Errorf("transport: dial udp %q: %w", s.remote.Addr, err)
	}
	// Formatted as the net.UDPAddr would print it: IPv4 unmapped.
	lap := uc.LocalAddr().(*net.UDPAddr).AddrPort()
	s.local.Addr = netip.AddrPortFrom(lap.Addr().Unmap(), lap.Port()).String()
	return uc, nil
}

// attach makes c the connection's open socket.
func (s *socketConn) attach(c net.Conn) {
	s.socketIO = &socketIO{conn: c, rsem: make(chan struct{}, 1)}
	s.opened.Store(true)
	s.tel.socketsOpened.Inc()
}

// lockRecv takes the receiver role, or fails with ctx's error when ctx
// ends before the current holder lets go.
func (s *socketConn) lockRecv(ctx context.Context) error {
	select {
	case s.rsem <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.rsem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *socketConn) unlockRecv() { <-s.rsem }

// stickyDeadline is the deadline armed on one direction of the socket.
// It is sticky: a call arms its context's deadline only when none, or a
// later one, is in place, and nobody resets it afterwards. A sequence of
// calls whose deadlines only move forward — a client giving every
// request the same budget — therefore costs one SetDeadline per budget
// instead of two per call. The price is that the armed deadline can be
// somebody else's: a timeout that is not the caller's own (staleTimeout)
// re-arms and tries again.
type stickyDeadline struct {
	armed time.Time // zero: none
}

// setDeadline arms t on dl's direction of the socket. The caller holds
// that direction's lock.
func (s *socketConn) setDeadline(dl *stickyDeadline, t time.Time) {
	if hook := deadlineHook.Load(); hook != nil {
		(*hook)(s)
	}
	dl.armed = t
	if dl == &s.rdl {
		s.conn.SetReadDeadline(t)
	} else {
		s.conn.SetWriteDeadline(t)
	}
}

// arm applies ctx's deadline, if it has one, leaving an earlier armed
// deadline where it is.
func (s *socketConn) arm(dl *stickyDeadline, ctx context.Context) (d time.Time, ok bool) {
	d, ok = ctx.Deadline()
	if ok && (dl.armed.IsZero() || dl.armed.After(d)) {
		s.setDeadline(dl, d)
	}
	return d, ok
}

// staleTimeout reports whether err is a timeout the caller (whose
// context deadline is d, if hasDeadline) should not see: an earlier
// caller's armed deadline, a park slice, or the immediate one a
// cancelled context left behind (wake), fired. It arms the caller's own
// deadline, or none, and the caller tries again.
func (s *socketConn) staleTimeout(dl *stickyDeadline, err error, d time.Time, hasDeadline bool) bool {
	if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		return false
	}
	if !hasDeadline {
		s.setDeadline(dl, time.Time{})
		return true
	}
	if time.Until(d) > 0 {
		s.setDeadline(dl, d)
		return true
	}
	return false
}

func (s *socketConn) Send(ctx context.Context, p []byte) error {
	if err := s.ready(); err != nil {
		return err
	}
	if len(p) > MaxDatagram {
		return fmt.Errorf("%w: %d bytes", core.ErrMessageTooLarge, len(p))
	}
	s.wmu.Lock()
	d, hasDeadline := s.arm(&s.wdl, ctx)
	_, err := s.conn.Write(p)
	for err != nil && s.staleTimeout(&s.wdl, err, d, hasDeadline) {
		_, err = s.conn.Write(p) // a datagram write is all or nothing
	}
	s.wmu.Unlock()
	s.tel.sendSyscalls.Inc()
	if err != nil {
		return s.mapSendErr(err, hasDeadline)
	}
	s.tel.sent.Inc()
	return nil
}

// SendBuf writes the buffer and releases it — datagram sockets do not
// retain payloads, so ownership ends at the syscall.
func (s *socketConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	err := s.Send(ctx, b.Bytes())
	b.Release()
	return err
}

// SendBufs transmits the burst behind a single wmu acquisition: one
// deadline check, then the whole burst (one sendmmsg syscall on linux, a
// write loop elsewhere). Ownership of every element ends here —
// datagram sockets do not retain payloads — so all buffers are released
// before returning. The first failure aborts the burst; the returned
// *core.BatchError reports how many messages went out.
func (s *socketConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	if len(bs) == 0 {
		return nil
	}
	if len(bs) == 1 {
		// A burst of one gains nothing from the mmsghdr machinery and
		// pays its setup cost; degrade to the plain single-datagram
		// write so SendBufs is safe to call unconditionally (the
		// coalescer hands it every flush, including size-1 flushes).
		if err := s.SendBuf(ctx, bs[0]); err != nil {
			return &core.BatchError{Sent: 0, Err: err}
		}
		return nil
	}
	if err := s.ready(); err != nil {
		core.ReleaseAll(bs)
		return &core.BatchError{Sent: 0, Err: err}
	}
	s.wmu.Lock()
	d, hasDeadline := s.arm(&s.wdl, ctx)
	sent, err := s.writeBurst(bs)
	for err != nil && s.staleTimeout(&s.wdl, err, d, hasDeadline) {
		var n int
		n, err = s.writeBurst(bs[sent:])
		sent += n
	}
	s.wmu.Unlock()
	if sent > 0 {
		s.tel.sent.Add(uint64(sent))
	}
	core.ReleaseAll(bs)
	if err != nil {
		return &core.BatchError{Sent: sent, Err: s.mapSendErr(err, hasDeadline)}
	}
	return nil
}

// mapSendErr normalizes a write failure.
func (s *socketConn) mapSendErr(err error, hasDeadline bool) error {
	if isClosedErr(err) {
		return core.ErrClosed
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() && hasDeadline {
		return context.DeadlineExceeded
	}
	return err
}

// writeBurstLoop is the portable burst path: one Write per message, the
// deadline and lock already handled by the caller.
func (s *socketConn) writeBurstLoop(bs []*wire.Buf) (int, error) {
	for i, b := range bs {
		if b.Len() > MaxDatagram {
			return i, oversizeErr(b.Len())
		}
		_, err := s.conn.Write(b.Bytes())
		s.tel.sendSyscalls.Inc()
		if err != nil {
			return i, err
		}
	}
	return len(bs), nil
}

// burstMax bounds one batch syscall (sendmmsg, recvmmsg) and with it the
// read-ahead queue. Linux caps vlen at UIO_MAXIOV internally; 64 keeps
// the fixed scratch arrays small while amortizing the syscall ~60x.
const burstMax = 64

// readAhead is how many datagrams a plain RecvBuf caller lets one
// receive syscall take off the socket; RecvBufs callers set their own
// bound with len(into).
const readAhead = 8

// recvQueue is a connected socket's read-ahead queue, shared by RecvBuf
// and RecvBufs (a chunnel may use both on one connection: framing does):
// one receive syscall takes what the kernel has queued, up to a bound,
// and later calls are served from here without a syscall. Guarded by the
// connection's receiver role.
type recvQueue struct {
	// slot[head:head+n] are the received datagrams, oldest first.
	slot    [burstMax]*wire.Buf
	head, n int
	// in holds the receive buffers. in[next:got] are what the last
	// receive took off the socket and the queue has not taken yet, each
	// with the size the kernel gave it (more than the buffer holds when it
	// was cut short) and its GRO segment size (0: no train). Every other
	// non-nil entry is a spare the next receive reads into; spares are
	// kept across calls so a drained burst costs no pool round-trips, and
	// go back to the pool on Close, with anything not yet queued.
	in        [burstMax]*wire.Buf
	size, seg [burstMax]int32
	next, got int
	// ctrl is the control buffers a receive offers beside in, for the
	// GRO segment size.
	ctrl recvCtrl
	// width is how many slots a burst receive offers the kernel: 2 at
	// first, doubled whenever a burst fills it. A receive buffer has to
	// take the largest train (64 KiB), so a socket holds buffers in
	// proportion to the bursts it actually sees.
	width int
	// ahead says the next receive should be a burst: the last one took
	// more than one datagram or train, or found its datagram already
	// waiting (a backlog is building). A socket that sees one datagram per
	// wake-up — a ping-pong — keeps the single receive, which is cheaper
	// than setting up a burst of one.
	ahead bool
}

// pop takes the oldest queued datagram, nil when the queue is empty.
func (q *recvQueue) pop() *wire.Buf {
	if q.n == 0 {
		return nil
	}
	b := q.slot[q.head]
	q.slot[q.head] = nil
	q.head++
	q.n--
	if q.n == 0 {
		q.head = 0 // take fills from slot 0
	}
	return b
}

// spare returns receive buffer i for a receive to read into, taking one
// from the pool when there is none.
func (q *recvQueue) spare(i int) *wire.Buf {
	if q.in[i] == nil {
		q.in[i] = wire.NewBuf(wire.DefaultHeadroom, recvSlot)
	}
	return q.in[i]
}

// take moves what the last receive got into the (empty) queue, oldest
// first, cutting each GRO train into its datagrams, until the queue is
// full: the rest waits in in for the next call. It drops, and counts,
// every datagram that is malformed or that its buffer cut off, and
// reports how many datagrams it queued.
func (q *recvQueue) take(tel *netCounters) int {
	for q.next < q.got && q.n < burstMax {
		b, seg := q.in[q.next], int(q.seg[q.next])
		k, lost := received(b, int(q.size[q.next]), seg)
		if lost > 0 {
			tel.dropped.Add(uint64(lost))
			tel.droppedMalformed.Add(uint64(lost))
		}
		if k == 0 {
			b.Release()
			q.in[q.next] = nil
			q.next++
			continue
		}
		room := min(k, burstMax-q.n)
		// What the queue has no room for stays in in[next], as a view.
		q.in[q.next] = splitTrain(b, seg, q.slot[q.n:q.n+room])
		q.n += room
		if rest := q.in[q.next]; rest != nil {
			q.size[q.next] = int32(rest.Len())
			break
		}
		q.next++
	}
	return q.n
}

// release returns every held buffer — queued, not yet queued or spare —
// to the pool.
func (q *recvQueue) release() {
	for i := range q.slot {
		if q.slot[i] != nil {
			q.slot[i].Release()
			q.slot[i] = nil
		}
		if q.in[i] != nil {
			q.in[i].Release()
			q.in[i] = nil
		}
	}
	q.head, q.n, q.next, q.got = 0, 0, 0, 0
}

// fill blocks until one receive has queued at least one datagram. want is
// how many the caller can take at once. The caller holds the receiver
// role and the queue is empty. What the last receive got that did not
// fit the queue comes first, without a syscall.
func (s *socketConn) fill(ctx context.Context, want int) error {
	q := &s.rq
	if s.queue() > 0 {
		return nil
	}
	slots := want // that this receive offers the kernel
	if want == 1 && q.ahead {
		slots = readAhead
	}
	if slots > 1 {
		q.width = max(q.width, 2)
		slots = min(slots, q.width)
	}
	d, hasDeadline := s.arm(&s.rdl, ctx)
	s.rpark.start(ctx, d, hasDeadline)
	defer s.rpark.end()
	for {
		err := s.receive(slots)
		if err == nil {
			if q.got == q.width && q.width < burstMax {
				q.width *= 2
			}
			if s.queue() > 0 {
				return nil
			}
			continue // all of it malformed
		}
		if slots == 1 {
			// A connection read one datagram at a time holds no receive
			// buffer while nobody is receiving, whatever the number of
			// idle connections.
			q.release()
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if isClosedErr(err) {
			return core.ErrClosed
		}
		if s.staleTimeout(&s.rdl, err, d, hasDeadline) {
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			// The socket deadline mirrors the context's and can fire a
			// hair earlier; report the context's error.
			return context.DeadlineExceeded
		}
		return err
	}
}

// queue fills the empty queue from what the last receive got, counting
// the datagrams it queues, and reports how many that is.
func (s *socketConn) queue() int {
	n := s.rq.take(s.tel)
	if n > 0 {
		s.tel.recvd.Add(uint64(n))
	}
	return n
}

// parkSlice is how long a receive parks in the socket before it pays for
// being woken by its context's cancellation. A receive answered within
// the slice — every ping-pong reply — registers nothing and starts no
// goroutine: the slice's deadline bounds its park, and the receive checks
// its context when it wakes, so it sees a cancellation at most a slice
// late. A receive still parked when the slice ends registers a wake-up
// with its context (context.AfterFunc) and parks again, to be woken the
// moment the context ends.
const parkSlice = time.Millisecond

// recvPark is the receive in flight's cancellation state: its context and
// deadline, when its slice ends (zero until a park starts it), and the
// registered wake-up. The receiver role guards it.
type recvPark struct {
	ctx         context.Context
	d           time.Time
	hasDeadline bool
	sliceEnd    time.Time
	stop        func() bool // deregisters the wake-up; nil when none
	wake        func()      // the socket's wake, bound once
}

func (p *recvPark) start(ctx context.Context, d time.Time, hasDeadline bool) {
	p.ctx, p.d, p.hasDeadline, p.sliceEnd = ctx, d, hasDeadline, time.Time{}
}

func (p *recvPark) end() {
	if p.stop != nil {
		p.stop()
		p.stop = nil
	}
	p.ctx = nil
}

// parks runs when the receive in flight is about to block in the socket
// (the linux build's receive callback, on EAGAIN). A receive whose
// context is already done does not park: an immediate deadline fails it
// at once. Any other goes on to armPark. A receive that finds its
// datagram waiting never gets here and pays nothing for being
// cancellable. The portable build has no such callback and calls
// armPark before every read, so its poll of an empty socket costs a
// slice. It asks the context's Err, not its Done channel, which a
// context makes on first request.
func (s *socketConn) parks() {
	if s.rpark.ctx.Err() != nil {
		s.setDeadline(&s.rdl, time.Unix(1, 0))
		return
	}
	s.armPark()
}

// armPark prepares a read that may block for its context's cancellation
// (the portable build calls it before every read, since nothing tells
// that build when a read is about to block). The first park of a receive
// whose context can be cancelled starts the slice — unless the context's
// own deadline comes sooner and ends the park anyway; a park after the
// slice has run out registers the wake-up. A context with a deadline can
// be cancelled; one without is asked for its Done channel, which is nil
// for context.Background, which parks with no slice and no wake-up.
//
// The slice's deadline is armed only when the socket has none that ends
// within it, and not sooner than three quarters of a slice from now: in
// a ping-pong every receive parks, and the deadline an earlier
// receive's slice left bounds this park as well. Re-arming it each time
// took the runtime's timer lock once per receive. A kept deadline that
// fires before this slice ends re-arms the rest of the slice, so a park
// still gets a whole slice before it pays for a wake-up, and a
// cancellation is still seen within a slice. That early wake costs the
// read's timeout error, an allocation: keeping a deadline only half a
// slice away woke enough of kv_ycsb_a's longer parks early to add 1 %
// to its allocations per op.
func (s *socketConn) armPark() {
	p := &s.rpark
	if p.stop != nil || !p.hasDeadline && p.ctx.Done() == nil {
		return
	}
	now := time.Now()
	if p.sliceEnd.IsZero() {
		t := now.Add(parkSlice)
		if p.hasDeadline && p.d.Before(t) {
			return
		}
		p.sliceEnd = t
		if a := s.rdl.armed; a.After(now.Add(parkSlice*3/4)) && !a.After(t) {
			return
		}
		s.setDeadline(&s.rdl, t)
		return
	}
	if now.Before(p.sliceEnd) {
		s.setDeadline(&s.rdl, p.sliceEnd)
		return
	}
	if p.wake == nil {
		p.wake = s.wake
	}
	p.stop = context.AfterFunc(p.ctx, p.wake)
}

// deadlineHook, when set, is called with the socket at every deadline
// setDeadline arms. Tests count them.
var deadlineHook atomic.Pointer[func(*socketConn)]

// wake fails a parked receive at once with an immediate read deadline; the
// receive then finds its context done. The wake-up can land late — after
// the receive has returned, even — so it touches nothing but the socket;
// the immediate deadline it may leave behind fails a later receive once,
// which staleTimeout recognises.
func (s *socketConn) wake() { s.conn.SetReadDeadline(time.Unix(1, 0)) }

// RecvBufs hands over the datagrams read ahead, or, when there are none,
// blocks for one receive — on linux a recvmmsg taking up to len(into)
// datagrams — and hands over what it got.
func (s *socketConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	if err := s.ready(); err != nil {
		return 0, err
	}
	if err := s.lockRecv(ctx); err != nil {
		return 0, err
	}
	defer s.unlockRecv()
	if s.rq.n == 0 {
		if err := s.fill(ctx, len(into)); err != nil {
			return 0, err
		}
	}
	n := 0
	for n < len(into) && s.rq.n > 0 {
		into[n] = s.rq.pop()
		n++
	}
	return n, nil
}

// Headroom: transports terminate the stack, no headers below.
func (s *socketConn) Headroom() int { return 0 }

func (s *socketConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := s.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

// RecvBuf returns the next datagram in a pooled buffer owned by the
// caller: the oldest one read ahead, or the first of a new receive. The
// buffer keeps the headroom a reply path needs to prepend its headers
// without reallocating.
func (s *socketConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	if err := s.lockRecv(ctx); err != nil {
		return nil, err
	}
	defer s.unlockRecv()
	if s.rq.n == 0 {
		if err := s.fill(ctx, 1); err != nil {
			return nil, err
		}
	}
	return s.rq.pop(), nil
}

// LocalAddr opens the socket, if it is not open, to report the port it
// is bound to.
func (s *socketConn) LocalAddr() core.Addr {
	s.ready()
	return s.local
}

func (s *socketConn) RemoteAddr() core.Addr { return s.remote }

// Direct implements core.DirectConn: a socket connection is the
// transport's own.
func (s *socketConn) Direct() bool { return true }

// Close closes the socket and returns the read-ahead queue — datagrams
// nobody took and spare receive buffers — to the pool. The socket goes
// first: that fails a receiver blocked in it out of the receiver role,
// and no receive callback runs on a closed fd, so the queue cannot refill
// afterwards. A connection that never opened makes no syscall, and will
// not open after: every later call fails with core.ErrClosed.
func (s *socketConn) Close() error {
	s.closeOnce.Do(func() {
		s.omu.Lock()
		opened := s.opened.Load()
		if !opened {
			s.unusable = core.ErrClosed
		}
		s.omu.Unlock()
		if !opened {
			return
		}
		s.closeErr = s.conn.Close()
		s.tel.socketsClosed.Inc()
		s.rsem <- struct{}{}
		s.rq.release()
		<-s.rsem
	})
	return s.closeErr
}

func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrClosed)
}

// oversizeErr reports a datagram exceeding MaxDatagram.
func oversizeErr(n int) error {
	return fmt.Errorf("%w: %d bytes", core.ErrMessageTooLarge, n)
}
