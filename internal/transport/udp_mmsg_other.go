//go:build !linux || (!amd64 && !arm64)

// Portable stand-ins for the linux sendmmsg/recvmmsg batch path. Sends
// degrade to a write loop behind the same single wmu acquisition;
// batched receives are disabled (RecvBufs delivers one message per
// call), so callers still see correct — just unamortized — behaviour.

package transport

import (
	"context"

	"github.com/bertha-net/bertha/internal/wire"
)

// batchRecvSupported: the reactor reads one datagram at a time.
const batchRecvSupported = false

// mmsgState is empty without kernel batch syscalls.
type mmsgState struct{}

// writeBurst degrades to the per-message write loop. Caller holds wmu,
// so the burst still pays the lock and deadline management only once.
func (s *socketConn) writeBurst(bs []*wire.Buf) (int, error) {
	return s.writeBurstLoop(bs)
}

// receive reads one datagram per call however many slots it is offered:
// without recvmmsg the read-ahead queue never holds more than one. This
// is the only conn.Read receive (the linux build reads through RawConn
// callbacks). Cancellation is wired up front, since nothing tells this
// path that the read is about to block.
func (s *socketConn) receive(ctx context.Context, slots int) error {
	if ctx.Done() != nil {
		done := make(chan struct{})
		defer close(done)
		go s.watch(ctx, done)
	}
	q := &s.rq
	n, err := s.conn.Read(q.spare(0).Bytes())
	s.tel.recvSyscalls.Inc()
	if err != nil {
		return err
	}
	q.slot[0].Truncate(n)
	q.n = 1
	return nil
}
