package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/wire"
)

// TestResumedServerAllocBudget bounds the server's share of a resumed
// lifecycle alone: takeResume from the request to queueOrClose (the
// ticket taken and the next one issued, the stack assembled on a lease
// of the connection, the answer sent), then Accept and Close. It read 9
// objects while the lease, the base's instrumented wrapper and the
// bookkeeping slices were allocations of their own, the answer was
// encoded into a new slice and sent under a late context of its own; it
// reads 2 since: the connection and the one late context.
func TestResumedServerAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	reg := NewRegistry()
	reg.MustRegister(&fakeResumer{fakeImpl{info: ImplInfo{
		Name: "r/fake", Type: "r", Endpoint: spec.EndpointBoth, Location: LocUserspace,
	}}})
	e, err := NewEndpoint("srv", spec.Seq(spec.New("r")), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	nl, err := e.Listen(ctx, &idleListener{done: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	conn := &answerConn{}
	stack := []ResolvedNode{{Type: "r", ImplName: "r/fake", Endpoint: spec.EndpointBoth}}
	conn.next = e.storeTicket(serverTicket{l: nl.(*negotiatedListener), snap: e.registry.snapshot(), stack: stack})
	lifecycle := func() {
		var req [2 + ticketLen]byte
		req[0], req[1] = tagCtrl, msgResume
		copy(req[2:], conn.next[:])
		e.takeResume(conn, req[:])
		c, err := nl.Accept(ctx)
		if err != nil {
			t.Fatalf("the resume was not queued: %v", err)
		}
		c.Close()
	}
	for i := 0; i < 8; i++ { // the ticket store's map and the pools
		lifecycle()
	}
	const budget = 3
	avg := testing.AllocsPerRun(100, lifecycle)
	if avg > budget {
		t.Fatalf("the server's share of a resumed lifecycle allocates %.1f objects, budget is %d", avg, budget)
	}
	t.Logf("%.1f objects per resumed lifecycle on the server", avg)
}

// TestTicketStoreAllocs: a client ticket's put, the keep-socket update
// that gives it its socket, and its take allocate nothing in a warm
// store, and neither do a server ticket's put, the park that gives it
// its socket, and its take. A client entry is 120 bytes and a server
// entry 128, which a Go map holds in place; while the expiry was a
// time.Time a client entry was 136, and every insert allocated it, and
// so did the update, whose callback took a pointer into it.
func TestTicketStoreAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e, err := NewEndpoint("cli", spec.Seq())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < maxTickets; i++ { // fill the ring and grow the map
		e.held.put(fmt.Sprintf("warm-%d", i), clientTicket{}, now)
	}
	const addr = "srv"
	ct := clientTicket{t: newTicket()}
	sock := &sinkConn{}
	avg := testing.AllocsPerRun(100, func() {
		e.held.put(addr, ct, now)
		if !e.keepSocket(addr, ct.t, sock) {
			t.Fatal("the ticket kept no socket")
		}
		if got, found, live := e.held.take(addr, now); !found || !live || got.sock != sock {
			t.Fatalf("take: found %t live %t, socket kept %t", found, live, got.sock == sock)
		}
	})
	if avg != 0 {
		t.Fatalf("a client ticket's put, keep-socket update and take allocate %.1f objects, want 0", avg)
	}

	for i := 0; i < maxTickets; i++ {
		e.storeTicket(serverTicket{})
	}
	tk := newTicket()
	parked := &parkedConn{}
	avg = testing.AllocsPerRun(100, func() {
		e.issued.put(tk, serverTicket{}, now)
		if !e.parkSocket(tk, parked) {
			t.Fatal("the ticket parked no socket")
		}
		if got, found, live := e.issued.take(tk, now); !found || !live || got.sock != parked {
			t.Fatalf("take: found %t live %t, socket parked %t", found, live, got.sock == parked)
		}
	})
	if avg != 0 {
		t.Fatalf("a server ticket's put, park and take allocate %.1f objects, want 0", avg)
	}
}

// parkedConn is a Parker that parks every time.
type parkedConn struct{ sinkConn }

func (*parkedConn) Park() bool { return true }

// refusingConn is a Parker that never parks.
type refusingConn struct{ sinkConn }

func (*refusingConn) Park() bool { return false }

// TestRefusedParkLeavesTicket: a socket that refuses to park (its
// listener is closing, or it is not a unix peer) is not left in the
// ticket it was to be parked with: the caller closes it, and the ticket
// reads as one nothing was parked with.
func TestRefusedParkLeavesTicket(t *testing.T) {
	e, err := NewEndpoint("srv", spec.Seq())
	if err != nil {
		t.Fatal(err)
	}
	tk := newTicket()
	e.issued.put(tk, serverTicket{}, time.Now())
	if e.parkSocket(tk, &refusingConn{}) {
		t.Fatal("parkSocket reports a refused park as parked")
	}
	if got, found, _ := e.issued.take(tk, time.Now()); !found || got.sock != nil {
		t.Fatalf("after a refused park the ticket is found %t and holds %v, want found and no socket", found, got.sock)
	}
}

// fakeResumer is a fakeImpl that is a Resumer.
type fakeResumer struct{ fakeImpl }

func (r *fakeResumer) ResumeDial(ctx context.Context, params []wire.Value, env *Env) (Conn, error) {
	return nil, ErrClosed
}

// idleListener accepts nothing until it is closed.
type idleListener struct{ done chan struct{} }

func (l *idleListener) Accept(ctx context.Context) (Conn, error) {
	select {
	case <-l.done:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *idleListener) Addr() Addr { return Addr{Net: "idle", Addr: "idle"} }

func (l *idleListener) Close() error {
	close(l.done)
	return nil
}

// answerConn is the connection a resumed client presents its tickets
// on, as the server sees it: it keeps the next ticket of the last answer
// sent on it, and allocates nothing.
type answerConn struct{ next ticket }

func (a *answerConn) Send(ctx context.Context, p []byte) error {
	return a.SendBuf(ctx, wire.NewBufFrom(0, p))
}

func (a *answerConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	if ans, err := decodeResumeAnswer(b.Bytes()); err == nil && ans.issued {
		a.next = ans.next
	}
	b.Release()
	return nil
}

func (a *answerConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	ReleaseAll(bs)
	return nil
}

func (a *answerConn) Recv(ctx context.Context) ([]byte, error)       { return nil, ErrClosed }
func (a *answerConn) RecvBuf(ctx context.Context) (*wire.Buf, error) { return nil, ErrClosed }
func (a *answerConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	return 0, ErrClosed
}
func (a *answerConn) Headroom() int    { return 0 }
func (a *answerConn) LocalAddr() Addr  { return Addr{Net: "answer", Addr: "server"} }
func (a *answerConn) RemoteAddr() Addr { return Addr{Net: "answer", Addr: "client"} }
func (a *answerConn) Close() error     { return nil }
