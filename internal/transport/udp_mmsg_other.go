//go:build !linux || (!amd64 && !arm64)

// Portable stand-ins for the linux sendmmsg/recvmmsg batch path. Sends
// degrade to a write loop behind the same single wmu acquisition;
// batched receives are disabled (RecvBufs delivers one message per
// call), so callers still see correct — just unamortized — behaviour.

package transport

import (
	"github.com/bertha-net/bertha/internal/wire"
)

// batchRecvSupported: the reactor reads one datagram at a time.
const batchRecvSupported = false

// mmsgState is empty without kernel batch syscalls.
type mmsgState struct{}

// recvCtrl is empty without UDP_GRO.
type recvCtrl struct{}

// writeBurst degrades to the per-message write loop. Caller holds wmu,
// so the burst still pays the lock and deadline management only once.
func (s *socketConn) writeBurst(bs []*wire.Buf) (int, error) {
	return s.writeBurstLoop(bs)
}

// receive reads one datagram per call however many slots it is offered:
// without recvmmsg the read-ahead queue never holds more than one. This
// is the only conn.Read receive (the linux build reads through RawConn
// callbacks). Every read is prepared for parking up front, since nothing
// tells this path that the read is about to block. That includes a read
// under an already-done context: it returns a datagram that is waiting,
// but on an empty socket it fails only when its slice runs out. A
// deadline already past would fail it before it looks at the socket, and
// one just ahead costs the same millisecond, the runtime's timer
// granularity for a parked read. This build never turns UDP_GRO on, so
// nothing arrives as a train; a datagram longer than the buffer is cut
// to its length, over MaxDatagram, and dropped as malformed.
func (s *socketConn) receive(slots int) error {
	s.armPark()
	q := &s.rq
	n, err := s.conn.Read(q.spare(0).Bytes())
	s.tel.recvSyscalls.Inc()
	if err != nil {
		return err
	}
	q.size[0], q.seg[0] = int32(n), 0
	q.next, q.got = 0, 1
	return nil
}
