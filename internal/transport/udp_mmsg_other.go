//go:build !linux || (!amd64 && !arm64)

// Portable stand-ins for the linux sendmmsg/recvmmsg batch path. Sends
// degrade to a write loop behind the same single wmu acquisition;
// batched receives are disabled (RecvBufs delivers one message per
// call), so callers still see correct — just unamortized — behaviour.

package transport

import (
	"errors"

	"github.com/bertha-net/bertha/internal/wire"
)

// batchRecvSupported: RecvBufs falls back to single-message receives.
const batchRecvSupported = false

// mmsgState is empty without kernel batch syscalls.
type mmsgState struct{}

// releaseScratch: no batched receive, nothing retained.
func (m *mmsgState) releaseScratch() {}

// writeBurst degrades to the per-message write loop. Caller holds wmu,
// so the burst still pays the lock and deadline management only once.
func (s *socketConn) writeBurst(bs []*wire.Buf) (int, error) {
	return s.writeBurstLoop(bs)
}

// readBurst is unreachable (batchRecvSupported is false); it exists so
// RecvBufs compiles on every platform.
func (s *socketConn) readBurst(into []*wire.Buf) (int, error) {
	return 0, errors.New("transport: batched receive not supported on this platform")
}
