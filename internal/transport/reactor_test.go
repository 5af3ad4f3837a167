package transport

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/wire"
)

// counterValue reads a process-wide transport counter.
func counterValue(name string) uint64 {
	return telemetry.Default().Counter(name).Value()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConnRing pins the ring protocol: FIFO order, wraparound, the
// full-ring drop (which consumes the buffer), and re-use after drain.
func TestConnRing(t *testing.T) {
	start := wire.BufsOutstanding()
	r := newConnRing(4)
	mk := func(tag byte) *wire.Buf {
		b := wire.NewBuf(0, 8)
		b.Bytes()[0] = tag
		b.Truncate(1)
		return b
	}
	for lap := 0; lap < 3; lap++ {
		for i := byte(0); i < 4; i++ {
			if !r.push(mk(i)) {
				t.Fatalf("lap %d: push %d rejected on non-full ring", lap, i)
			}
		}
		if r.occupied() != 4 {
			t.Fatalf("occupied = %d, want 4", r.occupied())
		}
		// Fifth push: full ring releases the buffer and reports false.
		if r.push(mk(99)) {
			t.Fatal("push on full ring succeeded")
		}
		for i := byte(0); i < 4; i++ {
			b := r.pop()
			if b == nil {
				t.Fatalf("lap %d: pop %d on non-empty ring returned nil", lap, i)
			}
			if got := b.Bytes()[0]; got != i {
				t.Fatalf("lap %d: pop order: got tag %d, want %d", lap, got, i)
			}
			b.Release()
		}
		if b := r.pop(); b != nil {
			t.Fatal("pop on empty ring returned a buffer")
		}
	}
	if n := wire.BufsOutstanding(); n != start {
		t.Fatalf("outstanding buffers: %d, want %d (full-ring push must release)", n, start)
	}
}

// TestConnRingConcurrentProducers races multiple producers against one
// consumer: every successfully pushed buffer is popped exactly once and
// nothing leaks (run under -race to check the publication protocol).
func TestConnRingConcurrentProducers(t *testing.T) {
	start := wire.BufsOutstanding()
	r := newConnRing(64)
	const producers = 4
	const perProducer = 2000
	var pushed atomic.Int64
	var wg sync.WaitGroup
	var popMu sync.Mutex
	prodDone := make(chan struct{})
	done := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b := wire.NewBuf(0, 16)
				if r.push(b) {
					pushed.Add(1)
				}
			}
		}()
	}
	go func() { wg.Wait(); close(prodDone) }()
	var popped int64
	go func() {
		defer close(done)
		quiescent := false
		for {
			popMu.Lock()
			b := r.pop()
			popMu.Unlock()
			if b != nil {
				popped++
				b.Release()
				continue
			}
			if quiescent {
				// Producers finished before this empty pop: definitive.
				return
			}
			select {
			case <-prodDone:
				quiescent = true
			default:
				runtime.Gosched()
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("consumer did not drain")
	}
	if popped != pushed.Load() {
		t.Fatalf("popped %d, pushed %d", popped, pushed.Load())
	}
	if n := wire.BufsOutstanding(); n != start {
		t.Fatalf("outstanding buffers: %d, want %d", n, start)
	}
}

// TestReactorPeerChurn is the reactor's churn gate: 1k rapid
// connect/close/reconnect cycles across concurrent clients leave no
// stale table entries, no leaked pooled buffers, and no leaked
// goroutines (sized for -race; run in CI's race job).
func TestReactorPeerChurn(t *testing.T) {
	ctx := ctxT(t)
	startGoroutines := runtime.NumGoroutine()
	startBufs := wire.BufsOutstanding()

	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := l.(ReactorListener)

	const workers = 8
	const perWorker = 125 // 1000 peer lifetimes total
	addr := l.Addr().Addr

	// Server side: accept every materialized peer, echo its hello, close
	// the server conn immediately — the close half of the churn — and tell
	// the client (gone) that its table entry is no more.
	var gone sync.Map // client address → chan struct{}, closed after the server conn
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			sc, err := l.Accept(ctx)
			if err != nil {
				return
			}
			go func() {
				if m, err := sc.Recv(ctx); err == nil {
					sc.Send(ctx, m)
				}
				sc.Close()
				if ch, ok := gone.LoadAndDelete(sc.RemoteAddr().Addr); ok {
					close(ch.(chan struct{}))
				}
			}()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c, err := DialUDP("cli", addr)
				if err != nil {
					errs <- err
					return
				}
				srvGone := make(chan struct{})
				gone.Store(c.LocalAddr().Addr, srvGone)
				if err := c.Send(ctx, []byte("hello")); err != nil {
					c.Close()
					errs <- err
					return
				}
				if _, err := c.Recv(ctx); err != nil {
					c.Close()
					errs <- err
					return
				}
				// The client keeps its socket, and with it its port, until
				// the server conn is out of the table: the kernel hands a
				// freed port to the next dial now and then, and a hello from
				// a port whose previous owner's conn is still closing goes
				// into that conn's ring and is drained with it (the demux
				// key is the source address; reconnecting after the close
				// is TestReactorReconnectSamePeer's).
				select {
				case <-srvGone:
				case <-ctx.Done():
					c.Close()
					errs <- ctx.Err()
					return
				}
				c.Close()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every server conn was closed after its echo: the table must drain
	// to zero — no stale entries for any of the 1000 peer lifetimes.
	waitFor(t, 5*time.Second, "connection table to drain", func() bool {
		return rl.ReactorStats().Conns == 0
	})
	st := rl.ReactorStats()
	for i, n := range st.ShardConns {
		if n != 0 {
			t.Errorf("shard %d still accounts %d conns", i, n)
		}
	}
	if st.Goroutines != int64(st.Shards) {
		t.Errorf("reactor goroutines = %d, want %d (one per shard)", st.Goroutines, st.Shards)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	<-acceptDone
	// Reactor goroutines exit and return their pools; pooled buffers and
	// goroutine counts return to baseline.
	waitFor(t, 5*time.Second, "pooled buffers to return", func() bool {
		return wire.BufsOutstanding() == startBufs
	})
	waitFor(t, 5*time.Second, "goroutines to exit", func() bool {
		runtime.GC() // nudge any finalizer-held goroutines
		return runtime.NumGoroutine() <= startGoroutines+2
	})
}

// TestReactorReconnectSamePeer pins close semantics for a reused source
// address: closing the server conn removes the table entry, and the
// peer's next datagram materializes a fresh connection.
func TestReactorReconnectSamePeer(t *testing.T) {
	ctx := ctxT(t)
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rl := l.(ReactorListener)

	c, err := DialUDP("cli", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Send(ctx, []byte("one")); err != nil {
		t.Fatal(err)
	}
	s1, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := s1.Recv(ctx); err != nil || string(m) != "one" {
		t.Fatalf("first generation recv: %q %v", m, err)
	}
	s1.Close()
	waitFor(t, 2*time.Second, "table entry removal", func() bool {
		return rl.ReactorStats().Conns == 0
	})

	// Same client socket (same source address): a new send must
	// materialize a second-generation connection.
	if err := c.Send(ctx, []byte("two")); err != nil {
		t.Fatal(err)
	}
	s2, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if m, err := s2.Recv(ctx); err != nil || string(m) != "two" {
		t.Fatalf("second generation recv: %q %v", m, err)
	}
	if s1 == s2 {
		t.Fatal("accept returned the closed first-generation conn")
	}
	// The closed first generation stays closed.
	if _, err := s1.Recv(ctx); err != core.ErrClosed {
		t.Fatalf("first generation recv after close: %v, want ErrClosed", err)
	}
}

// TestReactorCloseMidBurst closes the server conn while the peer is
// still flooding: the drain sweep must release every rung buffer and
// the reactor must keep serving other peers.
func TestReactorCloseMidBurst(t *testing.T) {
	ctx := ctxT(t)
	startBufs := wire.BufsOutstanding()
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := l.(ReactorListener)

	flooder, err := DialUDP("cli", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128)
	if err := flooder.Send(ctx, payload); err != nil {
		t.Fatal(err)
	}
	sc, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Flood concurrently with the close.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			flooder.Send(ctx, payload)
		}
	}()
	time.Sleep(time.Millisecond)
	sc.Close()
	close(stop)
	wg.Wait()
	flooder.Close()

	waitFor(t, 2*time.Second, "flooded conn to leave the table", func() bool {
		return rl.ReactorStats().Conns <= 1 // its tail datagrams may re-materialize it
	})

	// A different peer still gets clean service post-flood. Datagram
	// semantics: the flood may still fill the kernel receive buffer, so
	// the hello retransmits until the listener materializes the peer —
	// the same contract accept-dropped peers rely on.
	other, err := DialUDP("cli2", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	var oc core.Conn
	helloDeadline := time.Now().Add(8 * time.Second)
	for oc == nil {
		if time.Now().After(helloDeadline) {
			t.Fatal("new peer was never accepted post-flood")
		}
		if err := other.Send(ctx, []byte("still here")); err != nil {
			t.Fatal(err)
		}
		actx, acancel := context.WithTimeout(ctx, 200*time.Millisecond)
		c, err := l.Accept(actx)
		acancel()
		if err != nil {
			continue // hello lost in the flood: retransmit
		}
		if c.RemoteAddr().Addr == other.LocalAddr().Addr {
			oc = c
			break
		}
		c.Close() // the flooder's tail datagrams re-materialized it
	}
	if m, err := oc.Recv(ctx); err != nil || string(m) != "still here" {
		t.Fatalf("post-flood recv: %q %v", m, err)
	}
	oc.Close()

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "pooled buffers to return", func() bool {
		return wire.BufsOutstanding() == startBufs
	})
}

// TestReactorAcceptDropCounter pins satellite telemetry: peers that
// materialize while the accept backlog is full are dropped and counted
// in transport/udp/accept_dropped.
func TestReactorAcceptDropCounter(t *testing.T) {
	ctx := ctxT(t)
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rl := l.(ReactorListener)
	// Force the reactor up without consuming the accept queue.
	rl.Shards()

	before := counterValue("transport/udp/accept_dropped")
	beforeDropped := counterValue("transport/udp/datagrams_dropped")
	const peers = acceptBacklog + 32
	conns := make([]core.Conn, 0, peers)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < peers; i++ {
		c, err := DialUDP("cli", l.Addr().Addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if err := c.Send(ctx, []byte("hi")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "accept-drop counter", func() bool {
		return counterValue("transport/udp/accept_dropped") >= before+32
	})
	if got := counterValue("transport/udp/datagrams_dropped"); got < beforeDropped+32 {
		t.Errorf("aggregate dropped = %d, want >= %d (accept drops roll up)", got, beforeDropped+32)
	}
	if q := rl.ReactorStats().AcceptQueue; q != acceptBacklog {
		t.Errorf("accept queue = %d, want full backlog %d", q, acceptBacklog)
	}
}

// TestReactorQueueFullDropCounter pins the per-peer backpressure drop:
// a slow consumer's full ring increments the aggregate dropped counter
// AND the queue-full reason counter.
func TestReactorQueueFullDropCounter(t *testing.T) {
	ctx := ctxT(t)
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.(core.ReactorConfigurer).ConfigureReactor(core.ReactorConfig{Shards: 1, RingSize: 8}); err != nil {
		t.Fatal(err)
	}
	// Force the reactor up (it starts lazily) so the flood is demuxed.
	l.(ReactorListener).Shards()

	before := counterValue("transport/udp/datagrams_dropped_queue_full")
	beforeDropped := counterValue("transport/udp/datagrams_dropped")
	c, err := DialUDP("cli", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 64 datagrams into an 8-slot ring that nobody drains.
	for i := 0; i < 64; i++ {
		if err := c.Send(ctx, []byte("flood")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "queue-full counter", func() bool {
		return counterValue("transport/udp/datagrams_dropped_queue_full") > before
	})
	waitFor(t, 5*time.Second, "aggregate dropped counter", func() bool {
		return counterValue("transport/udp/datagrams_dropped") > beforeDropped
	})
	// The accepted conn still delivers the ring's worth.
	sc, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if m, err := sc.Recv(ctx); err != nil || string(m) != "flood" {
		t.Fatalf("recv: %q %v", m, err)
	}
}

// TestReactorMalformedDropCounter pins the malformed reason: a raw
// datagram above MaxDatagram (truncated by the receive buffer) is
// dropped as malformed, not as queue pressure.
func TestReactorMalformedDropCounter(t *testing.T) {
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.(ReactorListener).Shards() // force the reactor up

	before := counterValue("transport/udp/datagrams_dropped_malformed")
	raw, err := net.Dial("udp", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	oversize := make([]byte, MaxDatagram+1000)
	if _, err := raw.Write(oversize); err != nil {
		t.Skipf("kernel rejected %d-byte datagram: %v", len(oversize), err)
	}
	waitFor(t, 5*time.Second, "malformed counter", func() bool {
		return counterValue("transport/udp/datagrams_dropped_malformed") > before
	})
}

// TestReactorReadyRearm drives the edge-triggered readiness API: worker
// goroutines — one per shard, O(shards) total — serve every peer via
// Ready/Rearm without any per-connection receiver.
func TestReactorReadyRearm(t *testing.T) {
	ctx, cancel := context.WithCancel(ctxT(t))
	defer cancel()
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.(core.ReactorConfigurer).ConfigureReactor(core.ReactorConfig{Shards: 2, RingSize: 64}); err != nil {
		t.Fatal(err)
	}
	rl := l.(ReactorListener)

	const peers = 20
	const perPeer = 25
	var served atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < rl.Shards(); s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			bufs := make([]*wire.Buf, 16)
			for {
				conn, err := rl.Ready(ctx, shard)
				if err != nil {
					return
				}
				bc := conn.(core.BatchConn)
				// Drain without blocking: the readiness edge guarantees at
				// least one message; take what is there and re-arm.
				for {
					rctx, rcancel := context.WithTimeout(ctx, 10*time.Millisecond)
					n, err := bc.RecvBufs(rctx, bufs)
					rcancel()
					if err != nil {
						break
					}
					for i := 0; i < n; i++ {
						served.Add(1)
						bufs[i].Release()
						bufs[i] = nil
					}
					if n < len(bufs) {
						break
					}
				}
				rl.Rearm(conn)
			}
		}(s)
	}

	recvd0 := counterValue("transport/udp/datagrams_recvd")
	clients := make([]core.Conn, peers)
	for i := range clients {
		c, err := DialUDP("cli", l.Addr().Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	// Pace the rounds: an unpaced 500-datagram burst overflows the
	// kernel receive buffer and drops are invisible to the reactor. The
	// assertion is conservation — every datagram the reactor receives is
	// served through Ready/Rearm — plus a floor proving real traffic.
	for round := 0; round < perPeer; round++ {
		for _, c := range clients {
			if err := c.Send(ctx, []byte("m")); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, 10*time.Second, "workers to serve every received datagram", func() bool {
		recvd := counterValue("transport/udp/datagrams_recvd") - recvd0
		return recvd >= peers && served.Load() == int64(recvd)
	})
	cancel()
	wg.Wait()
}

// TestReactorShardOutOfRange pins Ready's bounds checking.
func TestReactorShardOutOfRange(t *testing.T) {
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rl := l.(ReactorListener)
	if _, err := rl.Ready(ctxT(t), rl.Shards()); err == nil {
		t.Fatal("Ready accepted an out-of-range shard")
	}
	if _, err := rl.Ready(ctxT(t), -1); err == nil {
		t.Fatal("Ready accepted a negative shard")
	}
}

// TestReactorConfigure pins the configuration seam: WithReactor-shaped
// config applies before start, errors after.
func TestReactorConfigure(t *testing.T) {
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rc := l.(core.ReactorConfigurer)
	if err := rc.ConfigureReactor(core.ReactorConfig{Shards: 3, RingSize: 100}); err != nil {
		t.Fatal(err)
	}
	rl := l.(ReactorListener)
	if got := rl.Shards(); got != 3 { // forces start
		t.Fatalf("shards = %d, want 3", got)
	}
	st := rl.ReactorStats()
	if st.RingSize != 128 {
		t.Errorf("ring size = %d, want 128 (rounded up to a power of two)", st.RingSize)
	}
	waitFor(t, 2*time.Second, "reactor goroutines", func() bool {
		return rl.ReactorStats().Goroutines == 3
	})
	if err := rc.ConfigureReactor(core.ReactorConfig{}); err == nil {
		t.Fatal("ConfigureReactor after start must error")
	}
}

// TestReactorRecvAllocs gates the reactor hot path: a send → reactor
// delivery → ring pop round trip performs no allocations at steady
// state. This covers the whole datapath the connections benchmark
// sweeps — pool get, demux lookup, ring push, wakeup, pop.
func TestReactorRecvAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	cli, err := DialUDP("cli", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	payload := make([]byte, 64)
	if err := cli.Send(ctx, payload); err != nil {
		t.Fatal(err)
	}
	sc, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	bc := sc.(core.BufConn)
	// Warm up: materialization, pools, counters, ready queue.
	for i := 0; i < 32; i++ {
		if err := cli.Send(ctx, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 33; i++ {
		b, err := bc.RecvBuf(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}

	avg := testing.AllocsPerRun(50, func() {
		if err := cli.Send(ctx, payload); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		b, err := bc.RecvBuf(ctx)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		b.Release()
	})
	if avg >= 1 {
		t.Fatalf("reactor send+deliver+recv allocates %.2f objects/op, want 0", avg)
	}
}
