package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
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

// DialUDP opens a connected datagram connection to raddr.
func DialUDP(hostID, raddr string) (core.Conn, error) {
	ua, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", raddr, err)
	}
	uc, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("transport: dial udp %q: %w", raddr, err)
	}
	return &socketConn{
		conn:   uc,
		local:  core.Addr{Net: "udp", Host: hostID, Addr: uc.LocalAddr().String()},
		remote: core.Addr{Net: "udp", Host: "", Addr: raddr},
		tel:    countersFor("udp"),
	}, nil
}

// socketConn adapts a connected net datagram socket to core.Conn.
type socketConn struct {
	conn          net.Conn
	local, remote core.Addr
	// tel is the transport kind's shared datagram counters, resolved at
	// construction (constructors must set it).
	tel       *netCounters
	closeOnce sync.Once
	closeErr  error

	// wmu serializes writes *and* write-deadline management. Without it
	// a deadline-bearing sender's deadline reset races concurrent
	// senders: A sets a deadline, B's write spuriously times out, then
	// A's reset (the old code's deferred SetWriteDeadline(time.Time{}))
	// clears a deadline a third sender just armed.
	//
	// The batch path takes wmu exactly once per burst: SendBufs arms the
	// deadline, transmits the whole burst (one sendmmsg on linux, a
	// write loop elsewhere), and resets — per-message locking would
	// interleave concurrent bursts and pay the acquisition n times.
	wmu sync.Mutex
	// sendmm/recvmm hold the platform batch-syscall state (cached raw
	// conn, scratch header arrays). sendmm is guarded by wmu; recvmm by
	// rmu, which also serializes concurrent RecvBufs callers so a burst
	// is drained by one reader at a time.
	sendmm mmsgState
	rmu    sync.Mutex
	recvmm mmsgState
}

func (s *socketConn) Send(ctx context.Context, p []byte) error {
	if len(p) > MaxDatagram {
		return fmt.Errorf("%w: %d bytes", core.ErrMessageTooLarge, len(p))
	}
	s.wmu.Lock()
	d, hasDeadline := ctx.Deadline()
	if hasDeadline {
		s.conn.SetWriteDeadline(d)
	}
	_, err := s.conn.Write(p)
	if hasDeadline {
		// Reset only the deadline we set; no-deadline senders never
		// touch the socket deadline.
		s.conn.SetWriteDeadline(time.Time{})
	}
	s.wmu.Unlock()
	s.tel.sendSyscalls.Inc()
	if err != nil {
		if isClosedErr(err) {
			return core.ErrClosed
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() && hasDeadline {
			return context.DeadlineExceeded
		}
		return err
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
// deadline arm, the whole burst (one sendmmsg syscall on linux, a write
// loop elsewhere), one reset. Ownership of every element ends here —
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
	s.wmu.Lock()
	d, hasDeadline := ctx.Deadline()
	if hasDeadline {
		s.conn.SetWriteDeadline(d)
	}
	sent, err := s.writeBurst(bs)
	if hasDeadline {
		s.conn.SetWriteDeadline(time.Time{})
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

// mapSendErr normalizes a burst write failure the same way Send does.
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

// RecvBufs drains a burst of datagrams into pooled buffers owned by the
// caller, blocking only for the first. On linux the drain is one
// recvmmsg syscall; elsewhere it degrades to a single-message receive.
func (s *socketConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	if !batchRecvSupported || len(into) == 1 {
		// recvmmsg for a single message costs more than the plain read
		// path; a one-slot burst degrades to RecvBuf.
		b, err := s.RecvBuf(ctx)
		if err != nil {
			return 0, err
		}
		into[0] = b
		return 1, nil
	}
	if ctx.Done() != nil {
		stop := ctxDeadline(ctx, s.conn.SetReadDeadline)
		defer stop()
	}
	for {
		s.rmu.Lock()
		n, err := s.readBurst(into)
		s.rmu.Unlock()
		if err != nil {
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			if isClosedErr(err) {
				return 0, core.ErrClosed
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if d, hasDeadline := ctx.Deadline(); hasDeadline {
					if time.Until(d) > 0 {
						// Stale immediate deadline (see RecvBuf): re-arm
						// to our own deadline and retry.
						s.conn.SetReadDeadline(d)
						continue
					}
					return 0, context.DeadlineExceeded
				}
				// Stale deadline from an earlier context: clear and retry
				// (see RecvBuf).
				s.conn.SetReadDeadline(time.Time{})
				continue
			}
			return 0, err
		}
		s.tel.recvd.Add(uint64(n))
		return n, nil
	}
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

// RecvBuf reads the next datagram into a pooled buffer owned by the
// caller. The buffer keeps the headroom a reply path needs to prepend
// its headers without reallocating.
func (s *socketConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	b := wire.NewBuf(wire.DefaultHeadroom, MaxDatagram+1)
	if ctx.Done() != nil {
		// Only cancellable contexts arm the deadline machinery; building
		// the method value alone would cost an allocation per receive.
		stop := ctxDeadline(ctx, s.conn.SetReadDeadline)
		defer stop()
	}
	for {
		n, err := s.conn.Read(b.Bytes())
		s.tel.recvSyscalls.Inc()
		if err != nil {
			if ctx.Err() != nil {
				b.Release()
				return nil, ctx.Err()
			}
			if isClosedErr(err) {
				b.Release()
				return nil, core.ErrClosed
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if d, hasDeadline := ctx.Deadline(); hasDeadline {
					if time.Until(d) > 0 {
						// Our deadline is still in the future, so this
						// timeout came from a *stale* immediate deadline —
						// an earlier context's cancellation racing its
						// reset (see ctxDeadline). Re-arm to our own
						// deadline and retry.
						s.conn.SetReadDeadline(d)
						continue
					}
					// The socket deadline mirrors the context deadline and
					// can fire a hair earlier; report the context's error.
					b.Release()
					return nil, context.DeadlineExceeded
				}
				// A stale deadline fires here with no deadline of our
				// own: clear it before retrying, or this loop spins hot
				// on an always-expired deadline.
				s.conn.SetReadDeadline(time.Time{})
				continue
			}
			b.Release()
			return nil, err
		}
		b.Truncate(n)
		s.tel.recvd.Inc()
		return b, nil
	}
}

func (s *socketConn) LocalAddr() core.Addr  { return s.local }
func (s *socketConn) RemoteAddr() core.Addr { return s.remote }

// Close closes the socket and returns the burst-receive scratch to the
// pool. The socket goes first: that fails a reader parked in readBurst
// out of rmu, and no callback runs on a closed fd, so the scratch cannot
// refill afterwards.
func (s *socketConn) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.conn.Close()
		s.rmu.Lock()
		s.recvmm.releaseScratch()
		s.rmu.Unlock()
	})
	return s.closeErr
}

// ctxDeadline propagates context cancellation into a deadline-based socket
// API: it sets an immediate deadline when ctx is done. The returned stop
// function must be deferred. Contexts that can never be cancelled cost
// nothing. stop resets the socket deadline only when one was actually
// armed, so deadline-free readers never clobber another caller's
// deadline. (A cancellation racing stop can leave a stale immediate
// deadline behind; RecvBuf's timeout branch clears those.)
func ctxDeadline(ctx context.Context, set func(time.Time) error) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	var (
		mu    sync.Mutex
		armed bool
	)
	if d, ok := ctx.Deadline(); ok {
		set(d)
		armed = true
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			mu.Lock()
			armed = true
			mu.Unlock()
			set(time.Unix(1, 0)) // immediate timeout unblocks the read
		case <-done:
		}
	}()
	return func() {
		close(done)
		mu.Lock()
		wasArmed := armed
		mu.Unlock()
		if wasArmed {
			set(time.Time{})
		}
	}
}

func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrClosed)
}

// oversizeErr reports a datagram exceeding MaxDatagram.
func oversizeErr(n int) error {
	return fmt.Errorf("%w: %d bytes", core.ErrMessageTooLarge, n)
}
