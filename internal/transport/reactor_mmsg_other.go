//go:build !linux || (!amd64 && !arm64)

package transport

import "github.com/bertha-net/bertha/internal/wire"

// runBurst is the linux recvmmsg fast path; the portable build reports
// false so reactor goroutines run the single-read loop. (Unreachable in
// practice: batchRecvSupported gates the call.)
func (l *reactorListener) runBurst(pool *wire.LocalPool) bool { return false }

// reactorSend is empty without kernel batch syscalls.
type reactorSend struct{}

// writeBurst degrades to the per-message write loop.
func (l *reactorListener) writeBurst(c *reactorConn, bs []*wire.Buf) (int, error) {
	return c.writeLoop(bs)
}
