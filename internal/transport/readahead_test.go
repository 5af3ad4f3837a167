package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// TestSocketRecvInterleaved uses RecvBuf and RecvBufs by turns on one
// connection, as the framing chunnel does: both serve from one read-ahead
// queue, so nothing is lost and nothing overtakes.
func TestSocketRecvInterleaved(t *testing.T) {
	ctx := ctxT(t)
	base := wire.BufsOutstanding()
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	const total = 600
	go func() {
		for i := 0; i < total; i++ {
			if a.Send(ctx, binary.LittleEndian.AppendUint32(nil, uint32(i))) != nil {
				return
			}
			if i%50 == 49 {
				time.Sleep(time.Millisecond) // stay inside the socket buffer
			}
		}
	}()
	next := 0
	check := func(m *wire.Buf) {
		t.Helper()
		if got := binary.LittleEndian.Uint32(m.Bytes()); int(got) != next {
			t.Fatalf("datagram %d arrived where %d was due", got, next)
		}
		next++
		m.Release()
	}
	into := make([]*wire.Buf, 5)
	for round := 0; next < total; round++ {
		if round%3 == 0 {
			m, err := core.RecvBuf(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			check(m)
			continue
		}
		n, err := core.RecvBufs(ctx, b, into[:1+round%5])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range into[:n] {
			check(m)
		}
	}
	a.Close()
	b.Close()
	if got := wire.BufsOutstanding(); got != base {
		t.Fatalf("%d pooled buffers outstanding after Close, want the baseline %d", got, base)
	}
}

// TestSocketReadAheadReleasedOnClose closes a connection whose plain
// RecvBuf caller has read ahead: the datagrams nobody took and the spare
// receive buffers all go back to the pool.
func TestSocketReadAheadReleasedOnClose(t *testing.T) {
	if !batchRecvSupported {
		t.Skip("no read-ahead without recvmmsg")
	}
	ctx := ctxT(t)
	base := wire.BufsOutstanding()
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := a.Send(ctx, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The first receive finds its datagram waiting, so the next ones read
	// ahead; take fewer than were sent.
	for i := 0; i < 4; i++ {
		m, err := core.RecvBuf(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if m.Bytes()[0] != byte(i) {
			t.Fatalf("datagram %d arrived where %d was due", m.Bytes()[0], i)
		}
		m.Release()
	}
	if held := wire.BufsOutstanding() - base; held < 2 {
		t.Fatalf("the connection holds %d buffers: RecvBuf did not read ahead", held)
	}
	a.Close()
	b.Close()
	if got := wire.BufsOutstanding(); got != base {
		t.Fatalf("%d pooled buffers outstanding after Close, want the baseline %d", got, base)
	}
}

// TestSocketPingPongKeepsPlainRead pins the other half of the read-ahead
// rule: a connection whose receives each wait for their one datagram
// never sets up a burst receive.
func TestSocketPingPongKeepsPlainRead(t *testing.T) {
	if !batchRecvSupported {
		t.Skip("no burst receive on this platform")
	}
	ctx := ctxT(t)
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	go func() {
		for {
			m, err := b.Recv(ctx)
			if err != nil || b.Send(ctx, m) != nil {
				return
			}
		}
	}()
	sa := a.(*socketConn)
	for i := 0; i < 200; i++ {
		if err := a.Send(ctx, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.lockRecv(ctx); err != nil {
		t.Fatal(err)
	}
	width := sa.rq.width
	sa.unlockRecv()
	// An echo that beat the receiver to the socket may have switched one
	// receive to a burst; bursts of one never widen it.
	if width > 2 {
		t.Fatalf("a ping-pong widened its burst receive to %d slots", width)
	}
}

// TestSocketCancelWhileBlocked cancels the context of a receiver that is
// parked in the socket: it returns the context's error promptly, no
// goroutine stays behind, and the connection still works afterwards.
func TestSocketCancelWhileBlocked(t *testing.T) {
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	goroutines := runtime.NumGoroutine()
	for _, withDeadline := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		if withDeadline {
			ctx, cancel = context.WithTimeout(context.Background(), time.Hour)
		}
		got := make(chan error, 1)
		go func() {
			_, err := b.Recv(ctx)
			got <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the receiver park
		cancel()
		select {
		case err := <-got:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("recv under a cancelled context (deadline %v) = %v, want context.Canceled", withDeadline, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("a blocked receiver (deadline %v) did not notice its context being cancelled", withDeadline)
		}
	}
	// The immediate deadline the cancellations left on the socket must
	// not fail the next receivers, with or without a deadline of their own.
	for _, withDeadline := range []bool{true, false} {
		ctx := context.Background()
		if withDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
		}
		if err := a.Send(ctx, []byte("after")); err != nil {
			t.Fatal(err)
		}
		if m, err := b.Recv(ctx); err != nil || string(m) != "after" {
			t.Fatalf("recv after the cancellations (deadline %v): %q, %v", withDeadline, m, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the receivers started", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSocketCancelWithinSlice cancels a parked receiver before its park
// slice has run out, when it has registered no wake-up: the slice's end
// wakes it and it returns the context's error.
func TestSocketCancelWithinSlice(t *testing.T) {
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := b.Recv(ctx)
		got <- err
	}()
	time.Sleep(parkSlice / 10)
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("recv under a cancelled context = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a receiver cancelled inside its park slice did not return")
	}
	if err := a.Send(context.Background(), []byte("after")); err != nil {
		t.Fatal(err)
	}
	if m, err := b.Recv(context.Background()); err != nil || string(m) != "after" {
		t.Fatalf("recv after the cancellation: %q, %v", m, err)
	}
}

// TestSocketPollDoneContext receives under a context that is already
// done: with a datagram queued the receive returns it, and with none it
// fails with the context's error — on the linux build at once, rather
// than parking for a slice; the portable build's poll costs a slice.
func TestSocketPollDoneContext(t *testing.T) {
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.Send(context.Background(), []byte("queued")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for { // the datagram may not have reached b's socket yet
		m, err := b.Recv(done)
		if err == nil {
			if string(m) != "queued" {
				t.Fatalf("polled %q, want the queued datagram", m)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the queued datagram never came")
		}
	}
	const polls = 100
	start := time.Now()
	for i := 0; i < polls; i++ {
		if _, err := b.Recv(done); !errors.Is(err, context.Canceled) {
			t.Fatalf("poll of an empty socket = %v, want context.Canceled", err)
		}
	}
	// batchRecvSupported marks the linux build, whose receive callback
	// sees EAGAIN and so knows a poll is about to park.
	if took := time.Since(start); batchRecvSupported && took > polls*parkSlice/2 {
		t.Fatalf("%d polls of an empty socket took %v: they parked", polls, took)
	}
}

// TestSocketStickyDeadlines walks the read deadline through the cases the
// sticky arming has to get right: a caller whose deadline is shorter than
// the armed one times out on its own deadline, not the armed one; a
// caller whose deadline is longer than an armed one that fires first
// keeps waiting; and a deadline-free caller after a deadline caller is
// not failed by the deadline left behind.
func TestSocketStickyDeadlines(t *testing.T) {
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	bg := context.Background()
	recvWithin := func(d time.Duration) (time.Duration, error) {
		ctx, cancel := context.WithTimeout(bg, d)
		defer cancel()
		t0 := time.Now()
		_, err := b.Recv(ctx)
		return time.Since(t0), err
	}

	// Arm a long deadline with a receive that succeeds.
	if err := a.Send(bg, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(time.Hour); err != nil {
		t.Fatal(err)
	}
	// Shorter than armed: must fire at its own deadline.
	if took, err := recvWithin(30 * time.Millisecond); !errors.Is(err, context.DeadlineExceeded) || took > 2*time.Second {
		t.Fatalf("30ms receive under an armed 1h deadline: %v after %v", err, took)
	}
	// Longer than armed: the armed 30 ms deadline (already past) fires
	// first; the caller re-arms its own and gets the datagram sent later.
	go func() {
		time.Sleep(60 * time.Millisecond)
		a.Send(bg, []byte("2"))
	}()
	if took, err := recvWithin(5 * time.Second); err != nil || took < 50*time.Millisecond {
		t.Fatalf("5s receive over an expired armed deadline: %v after %v", err, took)
	}
	// A short deadline is armed and left behind by a receive that
	// succeeds; a deadline-free receiver must outlive it.
	if err := a.Send(bg, []byte("3")); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		a.Send(bg, []byte("4"))
	}()
	if m, err := b.Recv(bg); err != nil || string(m) != "4" {
		t.Fatalf("deadline-free receive after a deadline receive: %q, %v", m, err)
	}

	// The write side: a deadline-free sender after a deadline sender whose
	// deadline has passed.
	sctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	if err := a.Send(sctx, []byte("5")); err != nil {
		t.Fatal(err)
	}
	cancel()
	time.Sleep(40 * time.Millisecond)
	if err := a.Send(bg, []byte("6")); err != nil {
		t.Fatalf("deadline-free send after an expired deadline send: %v", err)
	}
	lctx, cancel := context.WithTimeout(bg, time.Hour)
	defer cancel()
	bs := []*wire.Buf{wire.NewBufFrom(0, []byte("7")), wire.NewBufFrom(0, []byte("8"))}
	if err := core.SendBufs(lctx, a, bs); err != nil {
		t.Fatalf("burst send over an expired armed deadline: %v", err)
	}
	for _, want := range []string{"5", "6", "7", "8"} {
		if m, err := b.Recv(bg); err != nil || string(m) != want {
			t.Fatalf("recv %q, %v; want %q", m, err, want)
		}
	}
}

// TestSocketConcurrentReceivers puts a second receiver behind one that is
// parked in the socket under a context that never ends: the second one's
// own deadline, or cancellation, must still end its call — it waits for
// the first to hand over the socket, not for a datagram — and the first
// must be none the worse for it.
func TestSocketConcurrentReceivers(t *testing.T) {
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	bg := context.Background()
	first := make(chan string, 1)
	go func() {
		m, err := b.Recv(bg)
		if err != nil {
			first <- err.Error()
			return
		}
		first <- string(m)
	}()
	time.Sleep(10 * time.Millisecond) // let it park in the socket

	into := make([]*wire.Buf, 4)
	for _, burst := range []bool{false, true} {
		recv := func(ctx context.Context) error {
			if burst {
				_, err := core.RecvBufs(ctx, b, into)
				return err
			}
			_, err := core.RecvBuf(ctx, b)
			return err
		}
		dctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
		t0 := time.Now()
		err := recv(dctx)
		cancel()
		if took := time.Since(t0); !errors.Is(err, context.DeadlineExceeded) || took > 2*time.Second {
			t.Fatalf("50ms receive (burst %v) behind a parked receiver: %v after %v", burst, err, took)
		}
		cctx, cancel := context.WithCancel(bg)
		got := make(chan error, 1)
		go func() { got <- recv(cctx) }()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-got:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled receive (burst %v) behind a parked receiver: %v", burst, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("a receiver (burst %v) waiting behind a parked one did not notice its context being cancelled", burst)
		}
	}

	if err := a.Send(bg, []byte("for the first")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-first:
		if got != "for the first" {
			t.Fatalf("the parked receiver got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked receiver missed its datagram")
	}
}

// TestReactorAcceptServedLeavesNoReadyEdges is the ready-queue leak: a
// listener served through Accept alone never calls Ready, so deliveries
// must not queue readiness edges — a queued edge kept every connection
// the listener ever woke reachable, ring and all, after its Close.
func TestReactorAcceptServedLeavesNoReadyEdges(t *testing.T) {
	ctx := ctxT(t)
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rl := l.(*reactorListener)
	acct := func() int64 { return l.(ReactorListener).ReactorStats().ConnMemBytes }

	lifecycle := func() {
		c, err := DialUDP("cli", l.Addr().Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for {
			if err := c.Send(ctx, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			actx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
			sc, err := l.Accept(actx)
			cancel()
			if err != nil {
				continue // the hello was lost: send it again
			}
			m, err := sc.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Send(ctx, m); err != nil {
				t.Fatal(err)
			}
			sc.Close()
			if _, err := c.Recv(ctx); err != nil {
				t.Fatal(err)
			}
			return
		}
	}

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 50; i++ {
		lifecycle() // warm the table, the pools and the client side
	}
	mem0, heap0 := acct(), heap()
	const n = 400
	for i := 0; i < n; i++ {
		lifecycle()
	}
	for _, sh := range rl.shards {
		sh.ready.mu.Lock()
		queued := len(sh.ready.q) - sh.ready.head
		sh.ready.mu.Unlock()
		if queued != 0 {
			t.Errorf("%d readiness edges queued on a listener nobody calls Ready on", queued)
		}
	}
	if mem := acct(); mem > mem0 {
		t.Errorf("ConnMemBytes grew from %d to %d over %d accept/echo/close lifecycles", mem0, mem, n)
	}
	// A leaked connection keeps its 1024-slot ring: 16 KiB each, 6.5 MB
	// over the run. Anything near that is the leak; a flat heap wobbles by
	// far less.
	if grown := int64(heap()) - int64(heap0); grown > 1<<20 {
		t.Errorf("heap grew by %d bytes over %d lifecycles (a leaked ring is 16 KiB)", grown, n)
	}
}

// TestReactorReadyAfterDeliveries engages readiness late: connections
// that took deliveries before the first Ready call are reported by it.
func TestReactorReadyAfterDeliveries(t *testing.T) {
	ctx := ctxT(t)
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.(core.ReactorConfigurer).ConfigureReactor(core.ReactorConfig{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	rl := l.(ReactorListener)
	c, err := DialUDP("cli", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(ctx, []byte("early")); err != nil {
		t.Fatal(err)
	}
	sc, err := l.Accept(ctx) // starts the reactor; the delivery precedes Ready
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the delivery", func() bool { return rl.ReactorStats().RingOccupied == 1 })
	rc, err := rl.Ready(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rc != sc {
		t.Fatal("Ready returned a connection other than the one holding the early message")
	}
	if m, err := rc.Recv(ctx); err != nil || string(m) != "early" {
		t.Fatalf("recv %q, %v", m, err)
	}
	rl.Rearm(rc)
}
