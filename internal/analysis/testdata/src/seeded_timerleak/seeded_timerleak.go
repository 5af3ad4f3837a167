// Package seeded_timerleak is a deliberately leaky wait used by the
// driver tests to prove the CI gate trips: a server that waits for its
// client's IPC dial on a time.After arm, the shape the localfast splice
// wait once had. Each wait leaves its timer in the runtime's timer heap
// until the timeout fires, however early the dial arrived. If a change
// like this ever lands in a real package, berthavet (and the berthavet
// CI job) fails the build.
package seeded_timerleak

import (
	"errors"
	"time"
)

var errNoDial = errors.New("client never dialed the IPC socket")

type rendezvous struct {
	dialed chan int
}

// awaitDial returns the dialed socket's descriptor, or an error once
// timeout has passed.
func (r *rendezvous) awaitDial(timeout time.Duration) (int, error) {
	select {
	case fd := <-r.dialed:
		return fd, nil
	case <-time.After(timeout):
		return 0, errNoDial
	}
}
