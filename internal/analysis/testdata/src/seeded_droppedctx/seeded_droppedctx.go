// Package seeded_droppedctx is a deliberately stuck wait used by the
// driver tests to prove the CI gate trips: a server that waits for its
// client's IPC dial takes the caller's ctx and never consults it, so a
// client that never dials holds the server past every deadline and
// cancellation. If a change like this ever lands in a real package,
// berthavet (and the berthavet CI job) fails the build.
package seeded_droppedctx

import "context"

type rendezvous struct {
	dialed chan int
}

// awaitDial returns the dialed socket's descriptor.
func (r *rendezvous) awaitDial(ctx context.Context) int {
	return <-r.dialed
}
