package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// serveNet is a listener kind Serve is tested over: a reactor UDP
// listener takes the readiness path (one worker per shard), a pipe
// listener the goroutine-per-connection path.
type serveNet struct {
	name   string
	listen func(t *testing.T, shards int) core.Listener
	dial   func(t *testing.T, l core.Listener) core.Conn
}

func serveNets() []serveNet {
	pn := transport.NewPipeNetwork()
	var pipes atomic.Int64
	return []serveNet{
		{
			name: "udp",
			listen: func(t *testing.T, shards int) core.Listener {
				l, err := transport.ListenUDP("srv", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				if shards > 0 {
					if err := l.(core.ReactorConfigurer).ConfigureReactor(core.ReactorConfig{Shards: shards}); err != nil {
						t.Fatal(err)
					}
				}
				if _, ok := l.(core.ReadyListener); !ok {
					t.Fatal("a UDP listener must offer Ready/Rearm")
				}
				return l
			},
			dial: func(t *testing.T, l core.Listener) core.Conn {
				c, err := transport.DialUDP("cli", l.Addr().Addr)
				if err != nil {
					t.Fatal(err)
				}
				return c
			},
		},
		{
			name: "pipe",
			listen: func(t *testing.T, _ int) core.Listener {
				l, err := pn.Listen("srv", fmt.Sprintf("serve-%d", pipes.Add(1)))
				if err != nil {
					t.Fatal(err)
				}
				return l
			},
			dial: func(t *testing.T, l core.Listener) core.Conn {
				c, err := pn.DialFrom(ctxT(t), "cli", l.Addr())
				if err != nil {
					t.Fatal(err)
				}
				return c
			},
		},
	}
}

// startServe runs Serve in a goroutine and returns a function that waits
// for it to return.
func startServe(t *testing.T, ctx context.Context, l core.Listener, h core.Handler) (wait func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- core.Serve(ctx, l, h) }()
	return func() {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v, want nil after a cancel or a Close", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return")
		}
	}
}

// settle waits for the pooled-buffer count to come back to base: buffers
// released by goroutines Serve has joined are back already, those in a
// closing peer's hands a moment later. The count is the process's, so a
// buffer an earlier test let go of late can take it below base.
func settle(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for wire.BufsOutstanding() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers outstanding, want the baseline %d", wire.BufsOutstanding(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// seqHandler answers a request [seq u32][flag] with "re:"+request, and
// drops the ones flagged 'x'.
func seqHandler(_ context.Context, req, reply *wire.Buf) bool {
	p := req.Bytes()
	if len(p) == 5 && p[4] == 'x' {
		reply.Append([]byte("half-built reply of a dropped request"))
		return false
	}
	reply.Append([]byte("re:"))
	reply.Append(p)
	return true
}

// TestServeOrderAndDrop pipelines requests on one connection: the replies
// come back in request order, a request the handler drops gets none, and
// what the handler had appended for it does not leak into the next reply.
func TestServeOrderAndDrop(t *testing.T) {
	for _, sn := range serveNets() {
		t.Run(sn.name, func(t *testing.T) {
			ctx := ctxT(t)
			base := wire.BufsOutstanding()
			// One reactor goroutine: two of them draining one socket can
			// swap a peer's datagrams before Serve ever sees them.
			l := sn.listen(t, 1)
			wait := startServe(t, ctx, l, seqHandler)
			c := sn.dial(t, l)

			const n = 120
			var want [][]byte
			for i := 0; i < n; i++ {
				req := binary.LittleEndian.AppendUint32(nil, uint32(i))
				if i%5 == 3 {
					req = append(req, 'x')
				} else {
					req = append(req, '.')
					want = append(want, append([]byte("re:"), req...))
				}
				if err := c.Send(ctx, req); err != nil {
					t.Fatal(err)
				}
			}
			for i, w := range want {
				got, err := c.Recv(ctx)
				if err != nil {
					t.Fatalf("reply %d: %v", i, err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("reply %d = %q, want %q", i, got, w)
				}
			}
			c.Close()
			l.Close()
			wait()
			settle(t, base)
		})
	}
}

// pipeliner is a client that keeps window requests outstanding and sends
// everything unanswered again when a reply is late, as a datagram client
// must: the shared server socket can overflow under 64 of them.
func pipeliner(ctx context.Context, c core.Conn, id, total, window int) error {
	answered := make([]bool, total)
	next, done := 0, 0
	send := func(seq int) error {
		req := binary.LittleEndian.AppendUint32(nil, uint32(seq))
		req = append(req, byte(id))
		return c.Send(ctx, req)
	}
	var outstanding []int
	for done < total {
		for len(outstanding) < window && next < total {
			if err := send(next); err != nil {
				return err
			}
			outstanding = append(outstanding, next)
			next++
		}
		rctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		m, err := c.Recv(rctx)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			for _, seq := range outstanding {
				if err := send(seq); err != nil {
					return err
				}
			}
			continue
		}
		if err != nil {
			return err
		}
		if len(m) != 8 || string(m[:3]) != "re:" || m[7] != byte(id) {
			return fmt.Errorf("conn %d: reply %q is not to a request of this connection", id, m)
		}
		seq := int(binary.LittleEndian.Uint32(m[3:]))
		if seq >= total {
			return fmt.Errorf("conn %d: reply to request %d, which was never sent", id, seq)
		}
		if answered[seq] {
			continue // the reply to a retransmission
		}
		answered[seq] = true
		done++
		for i, s := range outstanding {
			if s == seq {
				outstanding = append(outstanding[:i], outstanding[i+1:]...)
				break
			}
		}
	}
	return nil
}

// TestServeConcurrentConnections runs 64 pipelining connections against
// one Serve: every request is answered on the connection it came from.
// On the reactor listener the serving goroutines are the reactor's and
// one worker per shard, not one per connection.
func TestServeConcurrentConnections(t *testing.T) {
	const conns, perConn, window = 64, 60, 6
	for _, sn := range serveNets() {
		t.Run(sn.name, func(t *testing.T) {
			ctx := ctxT(t)
			base := wire.BufsOutstanding()
			l := sn.listen(t, 0)
			before := runtime.NumGoroutine()
			wait := startServe(t, ctx, l, seqHandler)

			cs := make([]core.Conn, conns)
			for i := range cs {
				cs[i] = sn.dial(t, l)
				// One answered request each: all 64 are connected, and
				// nothing but Serve has started a goroutine yet.
				if err := pipeliner(ctx, cs[i], i, 1, 1); err != nil {
					t.Fatal(err)
				}
			}
			if rl, ok := l.(core.ReadyListener); ok {
				// Reactor goroutines, one worker per shard, Serve itself.
				// (A client's receive may have left a fired cancellation
				// wake-up, which context.AfterFunc runs in a goroutine,
				// on its way out.)
				max := 2*rl.Shards() + 1
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine()-before > max && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := runtime.NumGoroutine() - before; got > max {
					t.Errorf("%d goroutines serve %d connections, want at most %d (O(shards))", got, conns, max)
				}
			}

			var wg sync.WaitGroup
			errs := make(chan error, conns)
			for i, c := range cs {
				wg.Add(1)
				go func(i int, c core.Conn) {
					defer wg.Done()
					if err := pipeliner(ctx, c, i, perConn, window); err != nil {
						errs <- err
					}
				}(i, c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			for _, c := range cs {
				c.Close()
			}
			l.Close()
			wait()
			settle(t, base)
		})
	}
}

// TestServeStopJoins stops a Serve that is in the middle of bursts —
// by cancelling its context, and by closing its listener — while clients
// keep sending: Serve returns, nothing it started is left running, and
// every pooled buffer is back.
func TestServeStopJoins(t *testing.T) {
	for _, sn := range serveNets() {
		for _, stop := range []string{"cancel", "close"} {
			sn, stop := sn, stop
			t.Run(sn.name+"/"+stop, func(t *testing.T) {
				base := wire.BufsOutstanding()
				goroutines := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(ctxT(t))
				defer cancel()
				l := sn.listen(t, 0)
				var handled atomic.Int64
				wait := startServe(t, ctx, l, func(ctx context.Context, req, reply *wire.Buf) bool {
					handled.Add(1)
					time.Sleep(20 * time.Microsecond) // let bursts build up behind the handler
					return seqHandler(ctx, req, reply)
				})

				// Flooders: send without waiting, drain what comes back.
				var wg sync.WaitGroup
				fctx, stopFlood := context.WithCancel(ctxT(t))
				var cs []core.Conn
				for i := 0; i < 8; i++ {
					c := sn.dial(t, l)
					cs = append(cs, c)
					wg.Add(2)
					go func() {
						defer wg.Done()
						req := []byte{0, 0, 0, 0, '.'}
						for n := 1; fctx.Err() == nil; n++ {
							if c.Send(fctx, req) != nil {
								return
							}
							if n%32 == 0 {
								time.Sleep(50 * time.Microsecond) // a flood, not a spin: the server may share the core
							}
						}
					}()
					go func() {
						defer wg.Done()
						for {
							if _, err := c.Recv(fctx); err != nil {
								return
							}
						}
					}()
				}
				for handled.Load() < 500 {
					if ctx.Err() != nil {
						t.Fatal("the flood never reached the handler")
					}
					time.Sleep(time.Millisecond)
				}

				if stop == "cancel" {
					cancel()
				} else {
					l.Close()
				}
				wait()
				stopFlood()
				for _, c := range cs {
					c.Close()
				}
				wg.Wait()
				l.Close()
				settle(t, base)
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > goroutines {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines, %d before Serve started", runtime.NumGoroutine(), goroutines)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
