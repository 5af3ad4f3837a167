package core_test

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/wire"
)

// Tests of the standing association (DESIGN §10): a client keeps the
// unix socket a spliced or resumed connection ran on, with the next
// ticket, and presents the ticket on it next time.

// unixSockets reads the process-wide count of unix sockets dialed
// connections opened and closed.
func unixSockets() (opened, closed uint64) {
	reg := telemetry.Default()
	return reg.Counter("transport/unix/sockets_opened").Value(), reg.Counter("transport/unix/sockets_closed").Value()
}

// TestListenerCloseWaitsForDelivery: a resumed connection whose answer
// has gone out but which is not yet queued holds the listener's Close
// until it is closed. Close used to return in that window, and the
// delivery closed the connection after it.
func TestListenerCloseWaitsForDelivery(t *testing.T) {
	r := newResumeRig(t)
	r.lifecycle(t)
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	restore := core.HoldDeliver(func() {
		once.Do(func() { close(held) })
		<-release
	})
	defer restore()
	ctx := ctxT(t)
	connected := make(chan core.Conn, 1)
	go func() {
		raw, err := r.net.DialFrom(ctx, "h", core.Addr{Net: "pipe", Addr: "svc"})
		if err == nil {
			var c core.Conn
			if c, err = r.cli.Connect(ctx, raw); err == nil {
				connected <- c
				return
			}
		}
		connected <- nil
	}()
	<-held
	closed := make(chan struct{})
	go func() {
		r.nl.Close()
		close(closed)
	}()
	select {
	case <-closed:
		close(release)
		t.Fatal("the listener's Close returned while a resumed connection it was delivering was still open")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	if v := r.telS.Gauge("core/open_conns").Value(); v != 0 {
		t.Errorf("%d server connections open after Close, want 0", v)
	}
	if c := <-connected; c != nil {
		c.Close()
	}
}

// TestReturningClientEndsServerView: a server that reads its resumed
// connection until an error gets ErrClosed when the client comes back on
// the socket it kept, the new connection is accepted on that socket, and
// nothing the old view sends reaches the client after the answer.
func TestReturningClientEndsServerView(t *testing.T) {
	r := newResumeRig(t)
	r.lifecycle(t)
	ctx := ctxT(t)
	accepted := r.acceptOne(t)
	cOld := r.connect(t)
	sOld := <-accepted
	if sOld == nil {
		t.Fatal("the server accepted no connection")
	}
	ended := make(chan error, 1)
	go func() { // echoes until an error
		for {
			m, err := sOld.Recv(ctx)
			if err == nil {
				err = sOld.Send(ctx, m)
			}
			if err != nil {
				ended <- err
				return
			}
		}
	}()
	if err := cOld.Send(ctx, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if m, err := cOld.Recv(ctx); err != nil || string(m) != "one" {
		t.Fatalf("echo = %q, %v", m, err)
	}
	cOld.Close()

	opened, _ := unixSockets()
	accepted = r.acceptOne(t)
	cNew := r.connect(t)
	defer cNew.Close()
	select {
	case err := <-ended:
		if !errors.Is(err, core.ErrClosed) {
			t.Errorf("the old view's receive ended with %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the old view was still receiving after its client came back")
	}
	sNew := <-accepted
	if sNew == nil {
		t.Fatal("the server accepted no connection")
	}
	defer sNew.Close()
	if now, _ := unixSockets(); now != opened {
		t.Errorf("the returning client opened %d sockets, want 0", now-opened)
	}
	if err := sOld.Send(ctx, []byte("stale")); !errors.Is(err, core.ErrClosed) {
		t.Errorf("the old view's send after the handoff returned %v, want ErrClosed", err)
	}
	sOld.Close() // leaves the socket to the new connection
	echoOnce(t, cNew, sNew, "two")
	if n := r.counter(core.ResumesCounter); n != 2 {
		t.Errorf("%d connections resumed, want 2", n)
	}
	if n := r.counter(core.ResumeRejectedCounter); n != 0 {
		t.Errorf("%d resumes rejected, want 0", n)
	}
}

// TestStandingSocketRacesServerClose: a server that closes its
// connection right after its last send races the client, which comes
// back on the socket it kept as soon as it has read that send. The
// request can land in the closing connection's ring; the unix listener
// offers it again as a new peer, so no lifecycle is rejected, goes cold,
// or waits out a hello attempt.
func TestStandingSocketRacesServerClose(t *testing.T) {
	r := newResumeRig(t)
	r.lifecycle(t)
	ctx := ctxT(t)
	go func() {
		for {
			c, err := r.nl.Accept(ctx)
			if err != nil {
				return
			}
			if m, err := c.Recv(ctx); err == nil {
				c.Send(ctx, m)
			}
			c.Close()
		}
	}()
	const n = 2000
	before := r.counter(core.ResumesCounter)
	var slowest time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		raw, err := r.net.DialFrom(ctx, "h", core.Addr{Net: "pipe", Addr: "svc"})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := r.cli.Connect(ctx, raw)
		if err != nil {
			t.Fatalf("lifecycle %d: %v", i, err)
		}
		slowest = max(slowest, time.Since(start))
		if err := conn.Send(ctx, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		if m, err := conn.Recv(ctx); err != nil || string(m) != "ping" {
			t.Fatalf("lifecycle %d: echo = %q, %v", i, m, err)
		}
		conn.Close()
	}
	if got := r.counter(core.ResumesCounter) - before; got != n {
		t.Errorf("%d of %d lifecycles resumed: the others went cold (last: %q)", got, n, lastResumeEvent(r.telC))
	}
	if got := r.counter(core.ResumeRejectedCounter); got != 0 {
		t.Errorf("%d resumes rejected, want 0", got)
	}
	// A request lost to the race would cost a hello attempt (250 ms)
	// and go cold. The race detector's slowdown on a loaded 2-core box
	// has taken a Connect to 105 ms without one, so under it the bound
	// is that attempt.
	bound := 100 * time.Millisecond
	if testutil.RaceEnabled {
		bound = 250 * time.Millisecond
	}
	if slowest >= bound {
		t.Errorf("the slowest Connect took %v, want under %v", slowest, bound)
	}
	t.Logf("the slowest Connect took %v", slowest)
}

// TestStaleServerDataSkipped: what the previous connection's server sent
// after its client closed waits in the socket the client kept. The next
// resume skips it — two bytes that read as an answer before the answer
// named its ticket among it — and releases every buffer it read it into:
// once the socket and the listener are closed, the pooled buffer count is
// back where it was before the first connection.
func TestStaleServerDataSkipped(t *testing.T) {
	r := newResumeRig(t)
	base := wire.BufsOutstanding()
	r.lifecycle(t)
	ctx := ctxT(t)
	accepted := r.acceptOne(t)
	c1 := r.connect(t)
	s1 := <-accepted
	if s1 == nil {
		t.Fatal("the server accepted no connection")
	}
	echoOnce(t, c1, s1, "ping")
	c1.Close()
	for _, p := range [][]byte{{0, 5}, []byte("stale")} {
		if err := s1.Send(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()
	if !r.lifecycle(t) { // echoOnce checks the client reads its own echo
		t.Fatalf("the connection after stale data was not resumed: %q", lastResumeEvent(r.telC))
	}
	if n := r.counter(core.ResumeRejectedCounter); n != 0 {
		t.Errorf("%d resumes rejected, want 0", n)
	}
	core.DropHeldTickets(r.cli) // closes the socket, and what it read ahead
	r.ipcL.Close()              // returns its reactor's receive buffers
	got := wire.BufsOutstanding()
	for deadline := time.Now().Add(time.Second); got != base && time.Now().Before(deadline); got = wire.BufsOutstanding() {
		time.Sleep(time.Millisecond)
	}
	if got != base {
		t.Errorf("%d pooled buffers outstanding, want the %d before the first connection", got, base)
	}
}

// TestRecvInFlightClosesSocket: a client connection closed while a
// receive is in flight closes its socket instead of keeping it, which
// ends the receive; a kept socket would hand the next connection's
// answer to it.
func TestRecvInFlightClosesSocket(t *testing.T) {
	r := newResumeRig(t)
	r.lifecycle(t)
	ctx := ctxT(t)
	accepted := r.acceptOne(t)
	c := r.connect(t)
	s := <-accepted
	if s == nil {
		t.Fatal("the server accepted no connection")
	}
	defer s.Close()
	echoOnce(t, c, s, "ping")
	recvd := make(chan error, 1)
	go func() {
		_, err := c.Recv(ctx)
		recvd <- err
	}()
	for deadline := time.Now().Add(2 * time.Second); goroutinesIn("(*lease).RecvBuf") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the receive never started")
		}
	}
	_, closed := unixSockets()
	c.Close()
	select {
	case err := <-recvd:
		if err == nil {
			t.Error("the receive in flight at Close returned a message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the receive in flight at Close never returned")
	}
	if n := core.KeptSockets(r.cli); n != 0 {
		t.Errorf("the client kept %d sockets, want 0", n)
	}
	if _, now := unixSockets(); now != closed+1 {
		t.Errorf("Close closed %d sockets, want 1", now-closed)
	}
	s.Close()
	if !r.lifecycle(t) {
		t.Errorf("the next connection was not resumed: %q", lastResumeEvent(r.telC))
	}
}

// TestDroppedTicketClosesSocket: a kept socket lives as long as its
// ticket. Every way the ticket leaves the client's store other than
// being presented on it closes the socket's file.
func TestDroppedTicketClosesSocket(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts open files in /proc/self/fd, which is linux's")
	}
	for _, tc := range []struct {
		name string
		drop func(t *testing.T, r *resumeRig)
	}{
		{"expired", func(t *testing.T, r *resumeRig) { core.ExpireHeldTickets(r.cli); r.lifecycle(t) }},
		{"registry changed", func(t *testing.T, r *resumeRig) {
			r.regC.MustRegister(newMark("mark/fb", 1, 0))
			r.lifecycle(t)
		}},
		{"evicted", func(t *testing.T, r *resumeRig) { core.EvictHeldTickets(r.cli) }},
		{"replaced", func(t *testing.T, r *resumeRig) { core.ReplaceHeldTickets(r.cli) }},
		{"dropped", func(t *testing.T, r *resumeRig) { core.DropHeldTickets(r.cli) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newResumeRig(t)
			before := openFiles(t)
			r.lifecycle(t)
			var kept []string
			for f := range openFiles(t) {
				if !before[f] {
					kept = append(kept, f)
				}
			}
			if len(kept) != 1 || core.KeptSockets(r.cli) != 1 {
				t.Fatalf("the client kept %d sockets, %d new files open, want 1 of each", core.KeptSockets(r.cli), len(kept))
			}
			tc.drop(t, r)
			if openFiles(t)[kept[0]] {
				t.Errorf("%s is open after its ticket was %s", kept[0], tc.name)
			}
		})
	}
}

// TestDroppedTicketParksNoPeer: a server that closes its connection
// first parks its reactor peer with the next ticket, and every way that
// ticket leaves the issued store other than by being presented closes
// the peer: expired and let go by the next ticket issued, evicted by
// later tickets, or dropped by the listener's Close. A peer left parked
// would hold its ring until the IPC listener closed.
func TestDroppedTicketParksNoPeer(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(r *resumeRig)
	}{
		{"expired", func(r *resumeRig) { core.ExpireIssuedTickets(r.srv); core.IssueTicket(r.srv) }},
		{"evicted", func(r *resumeRig) { core.EvictIssuedTickets(r.srv) }},
		{"listener closed", func(r *resumeRig) { r.nl.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newResumeRig(t)
			peers := func() int64 { return r.ipcL.(core.ReactorAccountant).ReactorStats().Conns }
			accepted := r.acceptOne(t)
			cconn := r.connect(t)
			sconn := <-accepted
			if sconn == nil {
				t.Fatal("the server accepted no connection")
			}
			echoOnce(t, cconn, sconn, "ping")
			sconn.Close() // first: the server's view parks the peer
			cconn.Close()
			if got := peers(); got != 1 {
				t.Fatalf("%d IPC peers after the server closed first, want the parked one", got)
			}
			tc.drop(r)
			if got := peers(); got != 0 {
				t.Errorf("%d IPC peers after the ticket was %s, want 0", got, tc.name)
			}
		})
	}
}

// openFiles lists what the process's file descriptors refer to (a
// socket reads "socket:[inode]").
func openFiles(t *testing.T) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]bool, len(ents))
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil {
			files[target] = true
		}
	}
	return files
}
