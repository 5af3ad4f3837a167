package core

import (
	"fmt"
	"maps"
	"math"
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
		st.expires = math.MinInt64
		e.issued.m[k] = st
	}
}

// EvictIssuedTickets issues maxTickets tickets through no listener,
// which lets go of every ticket e issued before.
func EvictIssuedTickets(e *Endpoint) {
	for i := 0; i < maxTickets; i++ {
		IssueTicket(e)
	}
}

// IssueTicket issues one ticket through no listener, which lets go of
// the expired tickets e issued before.
func IssueTicket(e *Endpoint) { e.storeTicket(serverTicket{}) }

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

// HoldDeliver makes every admission, cold or by ticket, run hold after
// its answer is sent and before its connection is queued, until restore.
func HoldDeliver(hold func()) (restore func()) {
	queueHook.Store(&hold)
	return func() { queueHook.Store(nil) }
}

// KeptSockets counts the tickets e holds as a client that keep the
// socket of the connection they came with.
func KeptSockets(e *Endpoint) int {
	e.held.mu.Lock()
	defer e.held.mu.Unlock()
	n := 0
	for _, en := range e.held.m {
		if en.v.sock != nil {
			n++
		}
	}
	return n
}

// ExpireHeldTickets, EvictHeldTickets, ReplaceHeldTickets and
// DropHeldTickets are the ways the tickets e holds as a client leave its
// store other than by being presented: each lets every held ticket go.
// An expired one is found and dropped at the next Connect.
func ExpireHeldTickets(e *Endpoint) {
	e.held.mu.Lock()
	defer e.held.mu.Unlock()
	for k, en := range e.held.m {
		en.expires = math.MinInt64
		e.held.m[k] = en
	}
}

// EvictHeldTickets puts maxTickets tickets for other addresses.
func EvictHeldTickets(e *Endpoint) {
	for i := 0; i < maxTickets; i++ {
		e.held.put(fmt.Sprintf("evict-%d", i), clientTicket{}, time.Now())
	}
}

// ReplaceHeldTickets puts another ticket under each one's address.
func ReplaceHeldTickets(e *Endpoint) {
	var addrs []string
	e.held.mu.Lock()
	for a := range e.held.m {
		addrs = append(addrs, a)
	}
	e.held.mu.Unlock()
	for _, a := range addrs {
		e.held.put(a, clientTicket{}, time.Now())
	}
}

// DropHeldTickets drops them all.
func DropHeldTickets(e *Endpoint) {
	e.held.dropIf(func(clientTicket) bool { return true })
}
