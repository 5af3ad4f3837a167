package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/testutil"
)

// TestUDPConcurrentSendDeadline hammers one socketConn from senders with
// and without context deadlines. Before wmu serialized writes and
// deadline management, a deadline-bearing sender's SetWriteDeadline
// raced concurrent plain senders: their writes spuriously timed out, and
// the deferred reset could clear a deadline a third sender had just
// armed. Plain senders must never observe a timeout.
func TestUDPConcurrentSendDeadline(t *testing.T) {
	cli, srv, err := UDPPair("a", "b")
	if err != nil {
		t.Fatalf("pair: %v", err)
	}
	defer cli.Close()
	defer srv.Close()

	// Drain the receiver so kernel buffers never push back.
	drainCtx, stopDrain := context.WithCancel(context.Background())
	defer stopDrain()
	go func() {
		for {
			if _, err := srv.Recv(drainCtx); err != nil {
				return
			}
		}
	}()

	const (
		senders = 8
		sends   = 300
	)
	payload := []byte("deadline-race-probe")
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < sends; n++ {
				if i%2 == 0 {
					// Plain sender: no deadline, must never time out.
					if err := cli.Send(context.Background(), payload); err != nil {
						errs <- err
						return
					}
				} else {
					// Deadline sender: generous deadline, created fresh
					// each send so deadlines constantly arm and reset.
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := cli.Send(ctx, payload)
					cancel()
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent send: %v", err)
	}

	// The socket must be left with no write deadline armed.
	if err := cli.Send(context.Background(), payload); err != nil {
		t.Fatalf("send after storm: %v", err)
	}
}

// TestUDPRecvAfterStaleDeadline covers the hot-spin fix: a cancelled
// context leaves an immediate read deadline on the socket; a later
// deadline-free Recv must clear it and block normally instead of
// spinning on (or forever re-hitting) the expired deadline.
func TestUDPRecvAfterStaleDeadline(t *testing.T) {
	cli, srv, err := UDPPair("a", "b")
	if err != nil {
		t.Fatalf("pair: %v", err)
	}
	defer cli.Close()
	defer srv.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Recv(cancelled); err == nil {
		t.Fatal("recv with cancelled ctx: want error")
	}

	got := make(chan error, 1)
	go func() {
		msg, err := srv.Recv(context.Background())
		if err == nil && string(msg) != "after-stale" {
			err = context.DeadlineExceeded
		}
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reader block first
	if err := cli.Send(context.Background(), []byte("after-stale")); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("recv after stale deadline: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv after stale deadline never completed")
	}
}

// TestUDPRecvAllocs pins the pooled receive path: steady-state RecvBuf
// on a connected socket performs no allocations.
func TestUDPRecvAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cli, srv, err := UDPPair("a", "b")
	if err != nil {
		t.Fatalf("pair: %v", err)
	}
	defer cli.Close()
	defer srv.Close()

	bc, ok := srv.(core.BufConn)
	if !ok {
		t.Fatal("socketConn must implement core.BufConn")
	}

	const runs = 50
	payload := make([]byte, 64)
	ctx := context.Background()
	// Pre-send every datagram (warmup run + measured runs) so the
	// measurement loop only receives; 64-byte messages sit comfortably
	// in the kernel socket buffer.
	for i := 0; i < runs+1; i++ {
		if err := cli.Send(ctx, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	avg := testing.AllocsPerRun(runs, func() {
		b, err := bc.RecvBuf(ctx)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		b.Release()
	})
	if avg >= 1 {
		t.Fatalf("udp RecvBuf allocates %.2f objects/op, want 0", avg)
	}
}

// TestUDPRecvAllocsInstrumented is TestUDPRecvAllocs with the socket
// wrapped in telemetry instrumentation: the per-message latency
// histogram and byte counters must add zero allocations on top of the
// pooled receive path.
func TestUDPRecvAllocsInstrumented(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cli, srv, err := UDPPair("a", "b")
	if err != nil {
		t.Fatalf("pair: %v", err)
	}
	defer cli.Close()
	defer srv.Close()

	reg := telemetry.New()
	m := reg.Conn("transport", "udp")
	bc, ok := core.Instrument(srv, m).(core.BufConn)
	if !ok {
		t.Fatal("instrumented socketConn must implement core.BufConn")
	}

	const runs = 50
	payload := make([]byte, 64)
	ctx := context.Background()
	for i := 0; i < runs+1; i++ {
		if err := cli.Send(ctx, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	avg := testing.AllocsPerRun(runs, func() {
		b, err := bc.RecvBuf(ctx)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		b.Release()
	})
	if avg >= 1 {
		t.Fatalf("instrumented udp RecvBuf allocates %.2f objects/op, want 0", avg)
	}
	snap := reg.Snapshot()
	if len(snap.Conns) != 1 || snap.Conns[0].Recvs < runs {
		t.Fatalf("instrumentation recorded %+v, want ≥%d recvs", snap.Conns, runs)
	}
}

// TestUDPParkedRecvAllocs pins the cost of a receive that parks under a
// cancellable context, the ping-pong case: the reply comes well inside
// the park slice, so the receive registers no wake-up and starts no
// goroutine — it allocates nothing. A receive that set up a canceller on
// every park paid a channel and a goroutine each time. It runs under one
// shared context, and under a new timeout context for every round trip,
// as a client bounding each request gives: a receive answered within the
// slice asks the context for its error, never for its Done channel,
// which a fresh context would make on first request. The contexts are
// made before the measurement.
func TestUDPParkedRecvAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const runs = 200
	for _, tc := range []struct {
		name string
		ctxs int // how many contexts the round trips take in turn
	}{{"shared", 1}, {"fresh", runs + 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv, err := UDPPair("a", "b")
			if err != nil {
				t.Fatalf("pair: %v", err)
			}
			defer cli.Close()
			defer srv.Close()
			go func() { // echo until the pair closes
				echo := srv.(core.BufConn)
				for {
					b, err := echo.RecvBuf(context.Background())
					if err != nil || echo.SendBuf(context.Background(), b) != nil {
						return
					}
				}
			}()
			ctxs := make([]context.Context, tc.ctxs)
			for i := range ctxs {
				var cancel context.CancelFunc
				ctxs[i], cancel = context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
			}
			bc := cli.(core.BufConn)
			payload := make([]byte, 64)
			next := 0
			roundTrip := func() {
				ctx := ctxs[next%len(ctxs)]
				next++
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
			}
			roundTrip() // warm the socket state and the pools
			avg := testing.AllocsPerRun(runs, roundTrip)
			if t.Failed() {
				t.FailNow()
			}
			// A reply slower than the slice (a descheduled echo goroutine)
			// makes one receive register its wake-up; the budget absorbs a
			// few.
			if avg > 0.25 {
				t.Fatalf("a parked RecvBuf allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// TestParkedRecvKeepsSlice: in a ping-pong every receive parks, and each
// used to arm a new park-slice read deadline, a runtime timer change
// under its lock (2 % of connect_churn's CPU). A receive that finds the
// deadline an earlier receive's slice left, ending within its own slice
// and at least three quarters of one away, keeps it: a deadline is armed
// at most once per quarter slice of the loop's time, so 100 round trips
// of 50 µs arm a few, not one each (58 before). On a box slow enough
// that the round trips take longer than that, the bound follows the
// time they took. A receive cancelled while parked still returns.
func TestParkedRecvKeepsSlice(t *testing.T) {
	cli, srv, err := UDPPair("a", "b")
	if err != nil {
		t.Fatalf("pair: %v", err)
	}
	defer cli.Close()
	defer srv.Close()
	go func() { // echo until the pair closes
		echo := srv.(core.BufConn)
		for {
			b, err := echo.RecvBuf(context.Background())
			if err != nil || echo.SendBuf(context.Background(), b) != nil {
				return
			}
		}
	}()
	ctx := ctxT(t)
	bc := cli.(core.BufConn)
	payload := make([]byte, 64)
	roundTrip := func() {
		if err := cli.Send(ctx, payload); err != nil {
			t.Fatalf("send: %v", err)
		}
		b, err := bc.RecvBuf(ctx)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		b.Release()
	}
	roundTrip() // warm the socket state and the pools
	const rounds = 100
	stop := countDeadlines(cli)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		roundTrip()
	}
	took := time.Since(start)
	armed := stop()
	t.Logf("%d parked round trips in %v armed %d read deadlines", rounds, took, armed)
	limit := max(rounds/4, 2+int64(took/(parkSlice/4)))
	if armed > limit {
		t.Errorf("%d parked round trips in %v armed %d read deadlines, want at most %d", rounds, took, armed, limit)
	}

	cctx, cancel := context.WithCancel(ctx)
	time.AfterFunc(5*time.Millisecond, cancel)
	start = time.Now()
	if _, err := bc.RecvBuf(cctx); err != context.Canceled {
		t.Fatalf("a receive cancelled while parked returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("a receive cancelled after 5ms returned after %v", d)
	}
}
