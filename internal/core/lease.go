package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/internal/wire"
)

// A lease is one connection's view of a base connection that may outlive
// it: the Resumer's connection a spliced or resumed connection runs on
// (DESIGN §10 "Standing association"). A client keeps that socket after
// the connection closes, bound to the next ticket the server gave it, and
// presents the ticket on it next time. A server's view ends when the
// socket carries that ticket, and the socket goes on as the base of the
// connection it resumes.
//
// A view ends once: at its Close or, on a server, at the next ticket's
// request. From then on every call answers ErrClosed, though the socket
// lives on. Sends in flight when it ends finish first, so nothing the
// view sent follows what the next connection sends.
//
// A lease lives in the managedConn of the connection it is the view of
// (assemble), not in an allocation of its own.
type lease struct {
	Datapath // the base, resolved
	base     Conn
	// state counts the sends (leaseSend each) and receives (leaseRecv
	// each) in flight, and holds leaseEnded once the view has ended.
	state atomic.Int64

	ep *Endpoint
	// next is the ticket the server issued with this connection. A
	// client keeps base for it, and a server ends the view at the
	// request that presents it. A connection with no next ticket runs
	// on base directly.
	next ticket
	// addr, on a client, is the server address next resumes.
	addr string
	side Side
}

const (
	leaseSend  = 1
	leaseRecv  = 1 << 31
	leaseEnded = 1 << 62
)

// enter counts a call of kind k in flight, or reports false when the
// view has ended.
func (l *lease) enter(k int64) bool {
	if l.state.Add(k)&leaseEnded != 0 {
		l.state.Add(-k)
		return false
	}
	return true
}

func (l *lease) exit(k int64) { l.state.Add(-k) }

// end ends the view and waits for its sends in flight. It reports
// whether this call ended it, and how many receives were in flight then.
func (l *lease) end() (ended bool, recvs int64) {
	for {
		n := l.state.Load()
		if n&leaseEnded != 0 {
			return false, 0
		}
		if l.state.CompareAndSwap(n, n|leaseEnded) {
			break
		}
	}
	// A datagram send does not wait on the peer, so this is short; a
	// send that does wait is bounded by its own context.
	for spins := 0; l.state.Load()&(leaseRecv-1) != 0; spins++ {
		if spins < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
	return true, (l.state.Load() &^ leaseEnded) / leaseRecv
}

// Close ends the view. A client keeps base for its next ticket when no
// receive was in flight (one would take the next connection's messages)
// and the endpoint still holds that ticket for addr; otherwise, and
// always on a server, base is closed. A view that ended at the next
// ticket's request leaves base to the connection that request resumed.
func (l *lease) Close() error {
	ended, recvs := l.end()
	if !ended {
		return nil
	}
	if l.side == SideClient && recvs == 0 && l.ep.keepSocket(l.addr, l.next, l.base) {
		return nil
	}
	return l.base.Close()
}

func (l *lease) Send(ctx context.Context, p []byte) error {
	if !l.enter(leaseSend) {
		return ErrClosed
	}
	defer l.exit(leaseSend)
	return l.Datapath.Send(ctx, p)
}

func (l *lease) SendBuf(ctx context.Context, b *wire.Buf) error {
	if !l.enter(leaseSend) {
		b.Release()
		return ErrClosed
	}
	defer l.exit(leaseSend)
	return l.Datapath.SendBuf(ctx, b)
}

func (l *lease) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	if !l.enter(leaseSend) {
		ReleaseAll(bs)
		return &BatchError{Sent: 0, Err: ErrClosed}
	}
	defer l.exit(leaseSend)
	return l.Datapath.SendBufs(ctx, bs)
}

func (l *lease) Recv(ctx context.Context) ([]byte, error) {
	b, err := l.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

func (l *lease) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	if !l.enter(leaseRecv) {
		return nil, ErrClosed
	}
	defer l.exit(leaseRecv)
	return l.recvOne(ctx)
}

// RecvBufs takes a burst. A server's view takes it one message at a
// time, so that what follows the next ticket's request stays with the
// base for the connection it resumes.
func (l *lease) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if !l.enter(leaseRecv) {
		return 0, ErrClosed
	}
	defer l.exit(leaseRecv)
	if l.side == SideClient {
		return l.Datapath.RecvBufs(ctx, into)
	}
	if len(into) == 0 {
		return 0, nil
	}
	n := 0
	for ; n < len(into); n++ {
		b, err := l.recvOne(ctx)
		if err != nil {
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		into[n] = b
		ctx = Polled // the rest of the burst is what is there already
	}
	return n, nil
}

// recvOne receives one message. On a server, the request that presents
// the next ticket ends the view and is handed, with base, to the
// endpoint's resume sink.
func (l *lease) recvOne(ctx context.Context) (*wire.Buf, error) {
	b, err := l.Datapath.RecvBuf(ctx)
	if err != nil || l.side == SideClient || !isResume(b.Bytes(), l.next) {
		return b, err
	}
	l.handOff(b)
	return nil, ErrClosed
}

// handOff ends a server's view at the request b for its next ticket, and
// gives base and the request to the endpoint's resume sink. A view that
// another receive is still reading cannot give base away, nor one that
// Close has already ended: base is closed then, and the client goes cold
// after one hello attempt.
func (l *lease) handOff(b *wire.Buf) {
	defer b.Release()
	ended, recvs := l.end()
	switch {
	case !ended: // Close took the view, and closed base
	case recvs > 1:
		l.base.Close()
	default:
		l.ep.takeResume(l.base, b.Bytes())
	}
}

// isResume reports whether msg is exactly the request that presents t.
func isResume(msg []byte, t ticket) bool {
	return len(msg) == 2+ticketLen && msg[0] == tagCtrl && msg[1] == msgResume && ticket(msg[2:]) == t
}
