package core

import (
	"maps"
	"time"
)

// MuxDataConn is the data channel of the control/data mux over raw: what
// assemble wraps the negotiated stack around. The transform contract and
// fuzz tests drive it beside the chunnels' transforms.
func MuxDataConn(raw Conn) Conn { return newTaggedConn(raw).dataConn() }

// MuxDroppedCounter is the mux's decode_dropped counter name.
const MuxDroppedCounter = muxDroppedCounter

// ExpireIssuedTickets makes every ticket e has issued as a server
// expired, as if ticketTTL had passed.
func ExpireIssuedTickets(e *Endpoint) {
	e.issued.mu.Lock()
	defer e.issued.mu.Unlock()
	for k, st := range e.issued.m {
		st.expires = time.Time{}
		e.issued.m[k] = st
	}
}

// TicketCounts returns how many tickets e holds as a client and has
// issued as a server.
func TicketCounts(e *Endpoint) (held, issued int) {
	e.held.mu.Lock()
	held = len(e.held.m)
	e.held.mu.Unlock()
	e.issued.mu.Lock()
	issued = len(e.issued.m)
	e.issued.mu.Unlock()
	return held, issued
}

// StashHeldTickets returns a function that gives e back the tickets it
// holds now: presenting one again after it was used is a replay.
func StashHeldTickets(e *Endpoint) (restore func()) {
	e.held.mu.Lock()
	saved := maps.Clone(e.held.m)
	e.held.mu.Unlock()
	return func() {
		e.held.mu.Lock()
		e.held.m = saved
		e.held.mu.Unlock()
	}
}

// The resuming endpoint's counters.
const (
	ResumesCounter        = resumesCounter
	ResumeRejectedCounter = resumeRejectedCounter
)

// FanInQueued returns how many messages f holds that no receive has
// taken, and how many it can hold.
func FanInQueued(f *FanIn) (n, capacity int) { return len(f.in), cap(f.in) }
