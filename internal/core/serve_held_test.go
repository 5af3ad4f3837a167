package core

import "testing"

// TestServeHeldForgetsDroppedConns: on a ReadyListener a worker can get a
// connection from Ready, fail on it and drop it before the acceptor has
// held it. Whichever comes first, a dropped connection must not stay in
// the set Serve closes at the end.
func TestServeHeldForgetsDroppedConns(t *testing.T) {
	s := &server{held: make(map[Conn]bool)}
	early, late, open := &sinkConn{}, &sinkConn{}, &sinkConn{}

	s.drop(early) // the worker beat the acceptor to it
	s.hold(early)

	s.hold(late)
	s.drop(late)

	s.hold(open)

	if len(s.held) != 1 || !s.held[open] {
		t.Fatalf("held = %v, want only the connection still open", s.held)
	}
	for _, c := range []*sinkConn{early, late} {
		if !c.closed {
			t.Fatal("drop did not close the connection")
		}
	}
}
