//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"github.com/bertha-net/bertha/internal/wire"
)

// reactorMMsg is one reactor goroutine's recvmmsg scratch: header and
// iovec arrays plus per-message sockaddr buffers (msg_name), so one
// syscall yields a burst of datagrams each tagged with its source
// address. It is the listener-side analog of mmsgState, which serves
// connected sockets and needs no source capture. Each reactor goroutine
// owns one instance, so nothing here is shared or locked.
type reactorMMsg struct {
	raw syscall.RawConn
	fn  func(fd uintptr) bool

	hdrs  [mmsgChunk]mmsghdr
	iovs  [mmsgChunk]syscall.Iovec
	names [mmsgChunk]syscall.RawSockaddrAny // large enough for every family

	// scratch holds the receive buffers for the next burst, refilled
	// from the shard-local pool each lap and retained across laps so a
	// quiet socket costs no pool churn.
	scratch [mmsgChunk]*wire.Buf
	// width is how many slots a burst offers (see runBurst).
	width int

	n     int
	err   error
	calls int // syscalls the lap in flight completed (see mmsgState.calls)
}

// recvChunk is the RawConn.Read callback: one recvmmsg for up to
// m.width messages with source-address capture. The run loop pre-fills
// the scratch buffers. EAGAIN parks the goroutine in the runtime poller
// until the socket is readable.
func (m *reactorMMsg) recvChunk(fd uintptr) bool {
	for i := 0; i < m.width; i++ {
		p := m.scratch[i].Bytes()
		m.iovs[i] = syscall.Iovec{Base: &p[0], Len: uint64(len(p))}
		m.hdrs[i] = mmsghdr{}
		m.hdrs[i].hdr.Iov = &m.iovs[i]
		m.hdrs[i].hdr.Iovlen = 1
		m.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		m.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
	}
	for {
		r1, _, errno := syscall.Syscall6(sysRECVMMSG,
			fd, uintptr(unsafe.Pointer(&m.hdrs[0])), uintptr(m.width), 0, 0, 0)
		switch errno {
		case 0:
			m.calls++
			m.n = int(r1)
			return true
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
}

// source decodes message i's captured sockaddr into its peer key. ok is
// false for a source the demux path cannot key or answer — another
// family, or an unbound unix socket — which the caller counts as
// malformed. IPv6 zone identifiers are not resolved: link-local peers
// are keyed by address and port alone.
//
// A unix peer's key is its sun_path, read in place: the string aliases
// m.names[i] until the next lap, long enough to look the peer up, and
// materialize copies it for a new peer. A known peer's datagram thus
// costs no allocation.
func (m *reactorMMsg) source(i int) (peerKey, bool) {
	sa := &m.names[i]
	switch sa.Addr.Family {
	case syscall.AF_INET, syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		// The port field sits at the same offset for both families and is
		// in network byte order in the raw sockaddr; read it byte-wise so
		// the decode is endian-safe.
		pb := (*[2]byte)(unsafe.Pointer(&sa6.Port))
		port := uint16(pb[0])<<8 | uint16(pb[1])
		if sa.Addr.Family == syscall.AF_INET {
			sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
			return peerKey{ap: netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port)}, true
		}
		return peerKey{ap: netip.AddrPortFrom(netip.AddrFrom16(sa6.Addr), port)}, true
	case syscall.AF_UNIX:
		su := (*syscall.RawSockaddrUnix)(unsafe.Pointer(sa))
		n := int(m.hdrs[i].hdr.Namelen) - 2 // less sun_family
		if n > len(su.Path) {
			n = len(su.Path)
		}
		path := (*[len(su.Path)]byte)(unsafe.Pointer(&su.Path))[:max(n, 0)]
		// A pathname ends at its NUL, which the length may count; an
		// abstract name starts with one and is all the length says.
		if len(path) > 0 && path[0] != 0 {
			if i := bytes.IndexByte(path, 0); i >= 0 {
				path = path[:i]
			}
		}
		if len(path) == 0 {
			return peerKey{}, false // unbound: nothing to reply to
		}
		return peerKey{s: unsafe.String(&path[0], len(path))}, true
	default:
		return peerKey{}, false
	}
}

// runBurst is the linux reactor receive loop: each lap refills the
// scratch buffers from the shard pool, takes one recvmmsg burst off the
// shared socket, and delivers every datagram keyed by its captured
// source address. It reports false — without having consumed anything —
// when the socket exposes no raw fd, sending the goroutine to the
// portable single-read loop instead.
//
// A UDP listener offers mmsgChunk slots from the first burst. A unix
// listener starts at two and doubles them whenever a burst fills them:
// every slot holds a 64 KB pooled buffer for as long as the socket is
// quiet, and the splice it serves is mostly ping-pongs.
func (l *reactorListener) runBurst(pool *wire.LocalPool) bool {
	sc, err := l.sock.SyscallConn()
	if err != nil {
		return false
	}
	m := &reactorMMsg{raw: sc, width: mmsgChunk}
	if _, ok := l.sock.(*net.UnixConn); ok {
		m.width = 2
	}
	m.fn = m.recvChunk
	defer m.drainScratch(pool)
	for {
		for i := 0; i < m.width; i++ {
			if m.scratch[i] == nil {
				m.scratch[i] = pool.Get()
			}
		}
		m.n = 0
		m.err = nil
		m.calls = 0
		rerr := m.raw.Read(m.fn)
		l.tel.recvSyscalls.Add(uint64(m.calls))
		if m.err == nil {
			m.err = rerr // closed-fd errors surface from the poller
		}
		if m.err != nil {
			select {
			case <-l.closed:
				return true
			default:
			}
			if isClosedErr(m.err) {
				l.shutdown() // not Close: a reactor cannot join itself
				return true
			}
			continue // transient (e.g. ICMP-induced ECONNREFUSED)
		}
		for i := 0; i < m.n; i++ {
			b := m.scratch[i]
			m.scratch[i] = nil
			key, ok := m.source(i)
			n := int(m.hdrs[i].msgLen)
			if !ok || n > MaxDatagram {
				// Unkeyable source or truncated-by-our-buffer oversize:
				// malformed, not queue pressure.
				pool.Put(b)
				l.tel.dropped.Inc()
				l.tel.droppedMalformed.Inc()
				continue
			}
			b.Truncate(n)
			l.tel.recvd.Inc()
			l.deliver(key, nil, b, pool)
		}
		if m.n == m.width && m.width < mmsgChunk {
			m.width *= 2
		}
	}
}

// drainScratch returns unused scratch buffers to the pool on loop exit.
func (m *reactorMMsg) drainScratch(pool *wire.LocalPool) {
	for i := range m.scratch {
		if m.scratch[i] != nil {
			pool.Put(m.scratch[i])
			m.scratch[i] = nil
		}
	}
}

// reactorSend is a listener's raw send state: the same sendmsg/sendmmsg
// machinery connected sockets use (mmsgState, GSO probe state latched
// here per listener), plus the destination sockaddr every message
// carries as msg_name on the shared socket. It serves UDP bursts, and
// every send to a unix peer: the net package's WriteTo would build a
// fresh sockaddr for each of them.
type reactorSend struct {
	mm   mmsgState
	name syscall.RawSockaddrAny // large enough for every family

	// p is the datagram of a one-message unix send, and sendToFn its
	// pre-created RawConn callback.
	p        []byte
	sendToFn func(fd uintptr) bool
}

// sendState returns the listener's send state, creating it on first use.
// Caller holds sendMu.
func (l *reactorListener) sendState() *reactorSend {
	if l.send == nil {
		l.send = &reactorSend{}
		l.send.mm.initSend(l.sock)
		l.send.sendToFn = l.send.sendTo
	}
	return l.send
}

// setPeer points msg_name at c's peer. A UDP peer's family follows the
// key, which this socket's own receive path produced: an AF_INET socket
// yields 4-byte addresses, an AF_INET6 socket 16-byte ones — IPv4 peers
// of a dual-stack socket arrive, and are addressed, in their v4-mapped
// form. Zones are not carried (see source). A unix peer's sockaddr is
// its key, the path, behind the family; a pathname counts its NUL, an
// abstract name does not.
func (s *reactorSend) setPeer(c *reactorConn) {
	s.mm.name = (*byte)(unsafe.Pointer(&s.name))
	if path := c.key.s; path != "" {
		su := (*syscall.RawSockaddrUnix)(unsafe.Pointer(&s.name))
		su.Family = syscall.AF_UNIX
		n := copy((*[len(su.Path)]byte)(unsafe.Pointer(&su.Path))[:], path)
		s.mm.nameLen = uint32(2 + n)
		if path[0] != 0 && n < len(su.Path) {
			su.Path[n] = 0
			s.mm.nameLen++
		}
		return
	}
	ap := c.key.ap
	if a := ap.Addr(); a.Is4() {
		*(*syscall.RawSockaddrInet4)(unsafe.Pointer(&s.name)) = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		s.mm.nameLen = syscall.SizeofSockaddrInet4
	} else {
		*(*syscall.RawSockaddrInet6)(unsafe.Pointer(&s.name)) = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16()}
		s.mm.nameLen = syscall.SizeofSockaddrInet6
	}
	// Network byte order, at the offset both families share (see source).
	pb := (*[2]byte)(unsafe.Pointer(&(*syscall.RawSockaddrInet6)(unsafe.Pointer(&s.name)).Port))
	pb[0], pb[1] = byte(ap.Port()>>8), byte(ap.Port())
}

// sendTo is the RawConn.Write callback of a one-message send: one
// sendto(2) of s.p to msg_name. EAGAIN — a unix peer's receive queue is
// full — parks the goroutine until the socket is writable.
func (s *reactorSend) sendTo(fd uintptr) bool {
	var p unsafe.Pointer
	if len(s.p) > 0 {
		p = unsafe.Pointer(&s.p[0])
	}
	for {
		_, _, errno := syscall.Syscall6(syscall.SYS_SENDTO, fd, uintptr(p), uintptr(len(s.p)),
			0, uintptr(unsafe.Pointer(s.mm.name)), uintptr(s.mm.nameLen))
		switch errno {
		case 0:
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			s.mm.err = errno
			return true
		}
	}
}

// writeUnix sends p to c's unix peer through the listener's send state.
func (l *reactorListener) writeUnix(c *reactorConn, p []byte) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	s := l.sendState()
	if s.mm.raw == nil {
		return errNoRawConn
	}
	s.setPeer(c)
	s.p, s.mm.err = p, nil
	err := s.mm.raw.Write(s.sendToFn)
	s.p = nil
	if s.mm.err != nil {
		return s.mm.err
	}
	return err
}

// writeBurst sends bs to c's peer: bursts of two or more through the
// listener's shared send state (on UDP one GSO sendmsg when the burst is
// segmentable, else sendmmsg), anything else through the write loop. It
// reports how many messages went out and does not release bs.
func (l *reactorListener) writeBurst(c *reactorConn, bs []*wire.Buf) (int, error) {
	if l.sock == nil || len(bs) < 2 {
		return c.writeLoop(bs)
	}
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	s := l.sendState()
	if s.mm.raw == nil {
		return c.writeLoop(bs)
	}
	s.setPeer(c)
	return s.mm.sendBurst(bs, l.tel)
}
