//go:build !linux || (!amd64 && !arm64)

package transport

import (
	"errors"

	"github.com/bertha-net/bertha/internal/wire"
)

// runBurst is the linux recvmmsg fast path; the portable build reports
// false so reactor goroutines run the single-read loop. (Unreachable in
// practice: batchRecvSupported gates the call.)
func (l *reactorListener) runBurst(pool *wire.LocalPool) bool { return false }

// reactorSend is empty without kernel batch syscalls.
type reactorSend struct{}

// writeUnix is the linux raw send to a unix peer keyed by its path; the
// portable receive loop keeps every peer's net.Addr, so nothing gets
// here.
func (l *reactorListener) writeUnix(c *reactorConn, p []byte) error {
	return errors.New("transport: no raw unix send on this platform")
}

// writeBurst degrades to the per-message write loop.
func (l *reactorListener) writeBurst(c *reactorConn, bs []*wire.Buf) (int, error) {
	return c.writeLoop(bs)
}
