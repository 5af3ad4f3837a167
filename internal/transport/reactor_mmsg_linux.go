//go:build linux && (amd64 || arm64)

package transport

import (
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
	names [mmsgChunk]syscall.RawSockaddrInet6

	// scratch holds the receive buffers for the next burst, refilled
	// from the shard-local pool each lap and retained across laps so a
	// quiet socket costs no pool churn.
	scratch [mmsgChunk]*wire.Buf

	n     int
	err   error
	calls int // syscalls the lap in flight completed (see mmsgState.calls)
}

// recvChunk is the RawConn.Read callback: one recvmmsg for up to
// mmsgChunk messages with source-address capture. The run loop
// pre-fills the scratch buffers. EAGAIN parks the goroutine in the
// runtime poller until the socket is readable.
func (m *reactorMMsg) recvChunk(fd uintptr) bool {
	for i := 0; i < mmsgChunk; i++ {
		p := m.scratch[i].Bytes()
		m.iovs[i] = syscall.Iovec{Base: &p[0], Len: uint64(len(p))}
		m.hdrs[i] = mmsghdr{}
		m.hdrs[i].hdr.Iov = &m.iovs[i]
		m.hdrs[i].hdr.Iovlen = 1
		m.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		m.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
	}
	for {
		r1, _, errno := syscall.Syscall6(sysRECVMMSG,
			fd, uintptr(unsafe.Pointer(&m.hdrs[0])), uintptr(mmsgChunk), 0, 0, 0)
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

// source decodes message i's captured sockaddr. ok is false for an
// address family the demux path cannot key (counted as malformed by the
// caller). IPv6 zone identifiers are not resolved: link-local peers are
// keyed by address and port alone.
func (m *reactorMMsg) source(i int) (netip.AddrPort, bool) {
	sa := &m.names[i]
	// The port field sits at the same offset for both families and is in
	// network byte order in the raw sockaddr; read it byte-wise so the
	// decode is endian-safe.
	pb := (*[2]byte)(unsafe.Pointer(&sa.Port))
	port := uint16(pb[0])<<8 | uint16(pb[1])
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port), true
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), port), true
	default:
		return netip.AddrPort{}, false
	}
}

// runBurst is the linux reactor receive loop: each lap refills the
// scratch buffers from the shard pool, takes one recvmmsg burst off the
// shared socket, and delivers every datagram keyed by its captured
// source address. It reports false — without having consumed anything —
// when the socket exposes no raw fd, sending the goroutine to the
// portable single-read loop instead.
func (l *reactorListener) runBurst(pool *wire.LocalPool) bool {
	sc, err := l.udp.SyscallConn()
	if err != nil {
		return false
	}
	m := &reactorMMsg{raw: sc}
	m.fn = m.recvChunk
	defer m.drainScratch(pool)
	for {
		for i := 0; i < mmsgChunk; i++ {
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
			ap, ok := m.source(i)
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
			l.deliver(peerKey{ap: ap}, nil, b, pool)
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

// reactorSend is a listener's burst-send state: the same sendmsg/sendmmsg
// machinery connected sockets use (mmsgState, GSO probe state latched
// here per listener), plus the destination sockaddr every message of a
// burst carries as msg_name on the shared socket.
type reactorSend struct {
	mm   mmsgState
	name syscall.RawSockaddrInet6 // large enough for either family
}

// setPeer points the burst's msg_name at ap. The family follows the key,
// which this socket's own receive path produced: an AF_INET socket
// yields 4-byte addresses, an AF_INET6 socket 16-byte ones — IPv4 peers
// of a dual-stack socket arrive, and are addressed, in their v4-mapped
// form. Zones are not carried (see source).
func (s *reactorSend) setPeer(ap netip.AddrPort) {
	s.mm.name = (*byte)(unsafe.Pointer(&s.name))
	if a := ap.Addr(); a.Is4() {
		*(*syscall.RawSockaddrInet4)(unsafe.Pointer(&s.name)) = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		s.mm.nameLen = syscall.SizeofSockaddrInet4
	} else {
		s.name = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16()}
		s.mm.nameLen = syscall.SizeofSockaddrInet6
	}
	// Network byte order, at the offset both families share (see source).
	pb := (*[2]byte)(unsafe.Pointer(&s.name.Port))
	pb[0], pb[1] = byte(ap.Port()>>8), byte(ap.Port())
}

// writeBurst sends bs to c's peer: bursts of two or more on a UDP socket
// through the listener's shared send state (one GSO sendmsg when the
// burst is segmentable, else sendmmsg), anything else through the write
// loop. It reports how many messages went out and does not release bs.
func (l *reactorListener) writeBurst(c *reactorConn, bs []*wire.Buf) (int, error) {
	if l.udp == nil || len(bs) < 2 {
		return c.writeLoop(bs)
	}
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if l.send == nil {
		l.send = &reactorSend{}
		l.send.mm.initSend(l.udp)
	}
	if l.send.mm.raw == nil {
		return c.writeLoop(bs)
	}
	l.send.setPeer(c.key.ap)
	return l.send.mm.sendBurst(bs, l.tel)
}
