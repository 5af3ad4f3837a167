package transport

import (
	"sync/atomic"

	"github.com/bertha-net/bertha/internal/core"
)

// countDeadlines counts the deadlines setDeadline arms on conn's socket
// until the returned stop, which reports how many that was.
func countDeadlines(conn core.Conn) (stop func() int64) {
	s := conn.(*socketConn)
	var n atomic.Int64
	hook := func(on *socketConn) {
		if on == s {
			n.Add(1)
		}
	}
	deadlineHook.Store(&hook)
	return func() int64 {
		deadlineHook.Store(nil)
		return n.Load()
	}
}
