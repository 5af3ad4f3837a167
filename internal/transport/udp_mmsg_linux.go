//go:build linux && (amd64 || arm64)

// Batched datagram I/O via sendmmsg(2)/recvmmsg(2). One syscall moves a
// whole burst, which is where the batch path's throughput win comes
// from: the per-message cost drops from one syscall + one lock to a
// share of one syscall. The raw syscalls are driven through
// syscall.RawConn so the runtime poller still parks the goroutine on
// EAGAIN instead of spinning.
//
// Everything here is careful about allocation: the mmsghdr/iovec scratch
// arrays are fixed-size fields of mmsgState, the RawConn callbacks are
// method values created once, and receive-side buffers are pooled and
// retained across calls (recvQueue). SendBufs/RecvBufs stay at 0
// allocs/op.

package transport

import (
	"context"
	"errors"
	"net"
	"syscall"
	"unsafe"

	"github.com/bertha-net/bertha/internal/wire"
)

// batchRecvSupported gates the reactor onto its recvmmsg loop; the
// portable build degrades to single-message receives instead.
const batchRecvSupported = true

// mmsgChunk bounds one sendmmsg/recvmmsg invocation.
const mmsgChunk = burstMax

// UDP generalized segmentation offload: a burst of equal-size datagrams
// goes down as ONE sendmsg whose payload the kernel splits back into
// datagrams at the device (UDP_SEGMENT cmsg, linux ≥ 4.18). Where
// sendmmsg only amortizes syscall entry — the kernel still runs the
// full udp_sendmsg path per datagram — GSO runs the socket/route/skb
// setup once per burst, which is where most of the per-datagram kernel
// time lives on loopback.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: gso_size for this sendmsg

	gsoMaxSegs  = 64    // UDP_MAX_SEGMENTS
	gsoMaxBytes = 64000 // total payload ceiling for one GSO super-datagram

	// gsoMaxSeg caps the per-segment size eligible for the GSO path. The
	// kernel rejects a sendmsg whose gso_size plus headers exceeds the
	// path MTU (udp_send_skb returns EINVAL), where plain sendmmsg would
	// have delivered via IP fragmentation — so larger segments ride
	// sendmmsg instead. 1400 clears a standard 1500-byte ethernet MTU
	// with room for IP/UDP headers and modest encapsulation.
	gsoMaxSeg = 1400

	cmsgSegLen   = 18 // CMSG_LEN(2): cmsghdr + uint16 payload
	cmsgSegSpace = 24 // CMSG_SPACE(2): the above, padded to cmsg alignment
)

// GSO support is probed with the first eligible burst: kernels without
// UDP_SEGMENT reject the unknown cmsg with EINVAL before sending
// anything, and the state degrades to plain sendmmsg permanently. A
// rejection after the probe has succeeded (e.g. a path MTU smaller than
// the segment size) is treated as transient: the burst falls back to
// sendmmsg without touching the latched state.
const (
	gsoUnknown = iota
	gsoYes
	gsoNo
)

// sendmsg issues SYS_SENDMSG through a package variable so tests can
// inject the kernel's EINVAL-class UDP_SEGMENT rejections (a path MTU
// below the segment size, a pre-4.18 kernel), which loopback — with its
// 64k MTU and modern kernels — cannot produce organically.
var sendmsg = func(fd, msg uintptr) syscall.Errno {
	_, _, errno := syscall.Syscall6(syscall.SYS_SENDMSG, fd, msg, 0, 0, 0, 0)
	return errno
}

// mmsghdr mirrors struct mmsghdr on linux amd64/arm64: a msghdr plus the
// per-message transfer count, padded to 8-byte alignment (64 bytes).
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      [4]byte
}

// mmsgState is one direction's batch-syscall scratch: the cached
// RawConn, header/iovec arrays, and the in/out fields the pre-created
// RawConn callback communicates through (a fresh closure per burst
// would allocate). An instance serves either sends or receives, guarded
// by the owning socketConn's wmu or receiver role respectively.
type mmsgState struct {
	raw   syscall.RawConn
	tried bool // SyscallConn attempted; raw may still be nil (fallback)
	fn    func(fd uintptr) bool

	hdrs [mmsgChunk]mmsghdr
	iovs [mmsgChunk]syscall.Iovec

	// Send-side callback state: the burst being written and the running
	// count of messages the kernel accepted.
	bs []*wire.Buf
	// name, when non-nil, is the destination sockaddr stamped into every
	// message header: an unconnected (listener) socket sending to one
	// peer. Connected sockets leave it nil.
	name    *byte
	nameLen uint32
	// GSO fast-path state: probe result, the segment size of the burst
	// in flight, the pre-created sendGSO callback, and the UDP_SEGMENT
	// control message (a struct field so it stays addressable across the
	// syscall without allocating).
	gso int
	seg int
	// gsoFallback is set when the kernel rejected a UDP_SEGMENT sendmsg
	// (EINVAL-class): the burst's unsent tail must be replayed through
	// plain sendmmsg.
	gsoFallback bool
	gsoFn       func(fd uintptr) bool
	ctrl        [cmsgSegSpace]byte
	// Recv-side callback state (a connected socket's; the buffers are the
	// connection's recvQueue): how many slots the burst offers, the
	// single-read callback, the receiver's context, whether the receive
	// had to wait, and the channel that stops the cancellation watcher it
	// then started.
	want   int
	oneFn  func(fd uintptr) bool
	ctx    context.Context
	waited bool
	done   chan struct{}

	n   int
	err error
	// calls counts the syscalls the operation in flight completed (EAGAIN
	// and EINTR retries excluded), for the send/recv_syscalls counters.
	calls int
}

// initRaw resolves the RawConn once. A nil raw after init means the
// underlying conn does not expose a raw fd (never the case for the net
// package's UDP/unixgram sockets) and callers fall back.
func (m *mmsgState) initRaw(conn any, fn func(fd uintptr) bool) {
	m.tried = true
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return
	}
	m.raw = raw
	m.fn = fn
}

// initSend prepares m to send over conn: the raw fd, the two pre-created
// callbacks, and the GSO probe state.
func (m *mmsgState) initSend(conn any) {
	m.initRaw(conn, m.sendChunks)
	m.gsoFn = m.sendGSO
	if _, ok := conn.(*net.UDPConn); !ok {
		// UDP_SEGMENT is UDP-only; never fire the doomed probe cmsg
		// on unixgram sockets.
		m.gso = gsoNo
	}
}

// writeBurst transmits bs with one GSO sendmsg or sendmmsg, honouring
// the write deadline already armed by SendBufs (RawConn.Write surfaces
// it as a timeout error). Caller holds wmu. Returns how many messages
// went out.
func (s *socketConn) writeBurst(bs []*wire.Buf) (int, error) {
	m := &s.sendmm
	if !m.tried {
		m.initSend(s.conn)
	}
	if m.raw == nil {
		return s.writeBurstLoop(bs)
	}
	return m.sendBurst(bs, s.tel)
}

// sendBurst transmits bs over m.raw (which must be set): a burst the
// kernel can segment goes down as one UDP_SEGMENT sendmsg, anything else
// as sendmmsg. It is the one burst-send path of both socket kinds —
// connected sockets and, with m.name set, a reactor listener's shared
// socket. The caller serializes calls and owns (and releases) bs.
func (m *mmsgState) sendBurst(bs []*wire.Buf, tel *netCounters) (int, error) {
	// Oversize messages abort the burst at their index; the valid prefix
	// is still transmitted so BatchError.Sent stays accurate.
	limit := len(bs)
	var sizeErr error
	for i, b := range bs {
		if b.Len() > MaxDatagram {
			limit = i
			sizeErr = oversizeErr(b.Len())
			break
		}
	}
	m.bs = bs[:limit]
	m.n = 0
	m.err = nil
	m.calls = 0
	var err error
	if seg, ok := gsoEligible(m.bs); ok && m.gso != gsoNo {
		m.seg = seg
		m.gsoFallback = false
		err = m.raw.Write(m.gsoFn)
		if m.gsoFallback {
			tel.gsoFallbacks.Inc()
			if m.err == nil && err == nil {
				// The kernel rejected UDP_SEGMENT (probe failure, or a path
				// MTU smaller than the segment size mid-burst): replay the
				// unsent tail through plain sendmmsg, which delivers via IP
				// fragmentation. sendChunks resumes from m.n.
				err = m.raw.Write(m.fn)
			}
		}
	} else if limit > 0 {
		err = m.raw.Write(m.fn)
	}
	tel.sendSyscalls.Add(uint64(m.calls))
	sent, werr := m.n, m.err
	m.bs = nil
	if werr == nil {
		werr = err // deadline/closed-fd errors from the poller
	}
	if werr == nil {
		werr = sizeErr
	}
	return sent, werr
}

// gsoEligible reports whether bs can ride the UDP_SEGMENT fast path:
// at least two messages, every one but the last the same nonzero size,
// and the last no longer than that — the kernel cuts a super-datagram
// every gso_size bytes and lets the final segment run short, which is
// exactly the shape a fragmented message has (uniform fragments plus one
// tail).
func gsoEligible(bs []*wire.Buf) (seg int, ok bool) {
	if len(bs) < 2 {
		return 0, false
	}
	seg = bs[0].Len()
	if seg == 0 || seg > gsoMaxSeg {
		return 0, false
	}
	last := len(bs) - 1
	for _, b := range bs[1:last] {
		if b.Len() != seg {
			return 0, false
		}
	}
	if n := bs[last].Len(); n == 0 || n > seg {
		return 0, false
	}
	return seg, true
}

// sendChunks is the RawConn.Write callback: it pushes m.bs through
// sendmmsg in ≤mmsgChunk slices. Returning false parks the goroutine in
// the poller until the socket is writable again.
func (m *mmsgState) sendChunks(fd uintptr) bool {
	for m.n < len(m.bs) {
		pending := m.bs[m.n:]
		cnt := len(pending)
		if cnt > mmsgChunk {
			cnt = mmsgChunk
		}
		for i := 0; i < cnt; i++ {
			p := pending[i].Bytes()
			m.iovs[i] = syscall.Iovec{Len: uint64(len(p))}
			if len(p) > 0 {
				m.iovs[i].Base = &p[0]
			}
			m.hdrs[i] = mmsghdr{}
			m.hdrs[i].hdr.Iov = &m.iovs[i]
			m.hdrs[i].hdr.Iovlen = 1
			m.hdrs[i].hdr.Name = m.name
			m.hdrs[i].hdr.Namelen = m.nameLen
		}
		r1, _, errno := syscall.Syscall6(sysSENDMMSG,
			fd, uintptr(unsafe.Pointer(&m.hdrs[0])), uintptr(cnt), 0, 0, 0)
		switch errno {
		case 0:
			m.calls++
			m.n += int(r1)
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			m.calls++
			m.err = errno
			return true
		}
	}
	return true
}

// sendGSO is the RawConn.Write callback for segmentable bursts (uniform
// but for a short tail): each ≤gsoMaxSegs slice of m.bs becomes one
// sendmsg whose iovec array
// concatenates the messages and whose UDP_SEGMENT cmsg tells the kernel
// where to cut them apart again. The first successful call locks the
// probe to gsoYes; an EINVAL-class rejection by an unprobed socket locks
// it to gsoNo. Either way a rejection sets gsoFallback and the caller
// replays the unsent tail via sendmmsg — a rejected burst is never
// failed, because plain sendmmsg can still deliver it (the kernel also
// returns EINVAL when gso_size exceeds the path MTU minus headers, a
// per-burst condition, not a capability verdict).
func (m *mmsgState) sendGSO(fd uintptr) bool {
	for m.n < len(m.bs) {
		pending := m.bs[m.n:]
		cnt := len(pending)
		if cnt > gsoMaxSegs {
			cnt = gsoMaxSegs
		}
		if max := gsoMaxBytes / m.seg; cnt > max {
			cnt = max
		}
		for i := 0; i < cnt; i++ {
			p := pending[i].Bytes()
			m.iovs[i] = syscall.Iovec{Base: &p[0], Len: uint64(len(p))}
		}
		*(*uint64)(unsafe.Pointer(&m.ctrl[0])) = cmsgSegLen
		*(*int32)(unsafe.Pointer(&m.ctrl[8])) = solUDP
		*(*int32)(unsafe.Pointer(&m.ctrl[12])) = udpSegment
		*(*uint16)(unsafe.Pointer(&m.ctrl[16])) = uint16(m.seg)
		h := &m.hdrs[0].hdr
		*h = syscall.Msghdr{
			Name:       m.name,
			Namelen:    m.nameLen,
			Iov:        &m.iovs[0],
			Iovlen:     uint64(cnt),
			Control:    &m.ctrl[0],
			Controllen: cmsgSegSpace,
		}
		errno := sendmsg(fd, uintptr(unsafe.Pointer(h)))
		if errno != syscall.EINTR && errno != syscall.EAGAIN {
			m.calls++
		}
		switch errno {
		case 0:
			// UDP sendmsg is atomic: the whole super-datagram went out.
			m.gso = gsoYes
			m.n += cnt
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case syscall.EINVAL, syscall.EOPNOTSUPP, syscall.ENOPROTOOPT:
			// The kernel rejected the UDP_SEGMENT cmsg. On an unprobed
			// socket that never sent a segment this means no UDP_SEGMENT
			// support: latch gsoNo so future bursts skip the attempt.
			// After a successful probe it is a transient, parameter-
			// dependent rejection (e.g. the path MTU shrank below the
			// segment size) and the latched state stays gsoYes. Either
			// way the caller replays the unsent tail through sendmmsg
			// rather than failing the burst.
			if m.gso != gsoYes && m.n == 0 {
				m.gso = gsoNo
			}
			m.gsoFallback = true
			return true
		default:
			m.err = errno
			return true
		}
	}
	return true
}

// errNoRawConn fails a receive on a socket without a raw fd — none of the
// net package's datagram sockets, which are all this package wraps.
var errNoRawConn = errors.New("transport: socket exposes no raw connection")

// receive makes one receive into the (empty) read-ahead queue, through
// one of two RawConn.Read callbacks: recvOne, a read(2) of one datagram,
// when slots is 1 — the ping-pong case, which must not pay for setting up
// a burst — else recvBurst, one recvmmsg offering that many. Both are
// non-blocking first and tell waits when they are about to park, which
// is what a conn.Read cannot do (the portable build's receive has to wire
// up cancellation before every read). It blocks (in the poller) only
// until the first datagram arrives, and records in rq.ahead whether the
// next receive should read ahead. Caller holds the receiver role.
func (s *socketConn) receive(ctx context.Context, slots int) error {
	m := &s.recvmm
	if !m.tried {
		m.initRaw(s.conn, s.recvBurst)
		m.oneFn = s.recvOne
	}
	if m.raw == nil {
		return errNoRawConn
	}
	m.ctx, m.want = ctx, slots
	m.n, m.err, m.calls, m.waited = 0, nil, 0, false
	fn := m.oneFn
	if slots > 1 {
		fn = m.fn
	}
	err := m.raw.Read(fn)
	if m.done != nil {
		close(m.done)
		m.done = nil
	}
	m.ctx = nil
	s.tel.recvSyscalls.Add(uint64(m.calls))
	if m.err != nil {
		err = m.err
	}
	if err != nil {
		return err // deadline/closed-fd errors come from the poller
	}
	q := &s.rq
	for i := 0; i < m.n; i++ {
		q.slot[i].Truncate(int(m.hdrs[i].msgLen))
	}
	q.n = m.n
	q.ahead = m.n > 1 || !m.waited
	return nil
}

// waits runs in a receive callback that found nothing queued, just before
// the goroutine parks in the poller: from here on a cancelled context
// must be able to wake it. A receive that finds its datagram waiting
// never gets here and pays nothing for being cancellable.
func (s *socketConn) waits() {
	m := &s.recvmm
	m.waited = true
	if m.done == nil && m.ctx.Done() != nil {
		m.done = make(chan struct{})
		go s.watch(m.ctx, m.done)
	}
}

// recvOne is the RawConn.Read callback of the single read: one read(2)
// into slot 0.
func (s *socketConn) recvOne(fd uintptr) bool {
	m := &s.recvmm
	p := s.rq.spare(0).Bytes()
	for {
		r1, _, errno := syscall.Syscall(syscall.SYS_READ,
			fd, uintptr(unsafe.Pointer(&p[0])), uintptr(len(p)))
		switch errno {
		case 0:
			m.calls++
			m.hdrs[0].msgLen = uint32(r1)
			m.n = 1
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			s.waits()
			return false
		default:
			m.calls++
			m.err = errno
			return true
		}
	}
}

// recvBurst is the RawConn.Read callback of the burst receive: one
// recvmmsg for up to m.want messages. On a non-blocking socket recvmmsg
// returns whatever is queued without waiting once at least one datagram
// is available, so a burst costs one syscall; EAGAIN (nothing queued)
// parks the goroutine in the poller.
func (s *socketConn) recvBurst(fd uintptr) bool {
	m := &s.recvmm
	cnt := m.want
	for i := 0; i < cnt; i++ {
		p := s.rq.spare(i).Bytes()
		m.iovs[i] = syscall.Iovec{Base: &p[0], Len: uint64(len(p))}
		m.hdrs[i] = mmsghdr{}
		m.hdrs[i].hdr.Iov = &m.iovs[i]
		m.hdrs[i].hdr.Iovlen = 1
	}
	for {
		r1, _, errno := syscall.Syscall6(sysRECVMMSG,
			fd, uintptr(unsafe.Pointer(&m.hdrs[0])), uintptr(cnt), 0, 0, 0)
		switch errno {
		case 0:
			m.calls++
			m.n = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			s.waits()
			return false
		default:
			m.calls++
			m.err = errno
			return true
		}
	}
}
