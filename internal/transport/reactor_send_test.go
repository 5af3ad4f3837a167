package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// acceptPeer makes cli known to l and returns the server side of the
// connection.
func acceptPeer(ctx context.Context, t *testing.T, l core.Listener, cli core.Conn) core.Conn {
	t.Helper()
	if err := cli.Send(ctx, []byte("hello")); err != nil {
		t.Fatalf("hello: %v", err)
	}
	sc, err := l.Accept(ctx)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	m, err := sc.Recv(ctx)
	if err != nil || string(m) != "hello" {
		t.Fatalf("server recv = %q, %v", m, err)
	}
	return sc
}

// TestReactorSendBufs sends fragment-shaped bursts from a reactor
// connection to its peer over every kind of listener socket: IPv4, IPv6,
// a dual-stack socket talking to an IPv4 peer (addressed in v4-mapped
// form) and unixgram. Every datagram arrives byte-exact and in order;
// with kernel batch support a burst costs one UDP sendmsg per ≤52-segment
// chunk, or one unixgram sendmmsg per ≤64 datagrams — two calls for the
// 65-datagram burst either way — and elsewhere one write per datagram.
func TestReactorSendBufs(t *testing.T) {
	unixPath := filepath.Join(t.TempDir(), "srv.sock")
	for _, tc := range []struct {
		name   string
		listen func() (core.Listener, error)
		dial   func(l core.Listener) (core.Conn, error)
		net    string
	}{
		{"ipv4", func() (core.Listener, error) { return ListenUDP("srv", "127.0.0.1:0") }, nil, "udp"},
		{"ipv6", func() (core.Listener, error) { return ListenUDP("srv", "[::1]:0") }, nil, "udp"},
		{"dualstack", func() (core.Listener, error) { return ListenUDP("srv", ":0") },
			func(l core.Listener) (core.Conn, error) {
				_, port, _ := net.SplitHostPort(l.Addr().Addr)
				return DialUDP("cli", "127.0.0.1:"+port)
			}, "udp"},
		{"unixgram", func() (core.Listener, error) { return ListenUnix("srv", unixPath) },
			func(l core.Listener) (core.Conn, error) { return DialUnix("srv", unixPath) }, "unix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := ctxT(t)
			l, err := tc.listen()
			if err != nil {
				t.Skipf("listen: %v (address family unavailable here)", err)
			}
			defer l.Close()
			dial := tc.dial
			if dial == nil {
				dial = func(l core.Listener) (core.Conn, error) { return DialUDP("cli", l.Addr().Addr) }
			}
			cli, err := dial(l)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer cli.Close()
			sc := acceptPeer(ctx, t, l, cli)
			defer sc.Close()

			batched := batchRecvSupported
			for _, burst := range []struct{ n, calls int }{{2, 1}, {14, 1}, {65, 2}} {
				sent := counterValue("transport/" + tc.net + "/datagrams_sent")
				calls := counterValue("transport/" + tc.net + "/send_syscalls")
				bs, want := mkSizes(fragmentSizes(burst.n, 1209, 33)...)
				if err := core.SendBufs(ctx, sc, bs); err != nil {
					t.Fatalf("SendBufs(%d): %v", burst.n, err)
				}
				for i, g := range recvN(ctx, t, cli, burst.n) {
					if !bytes.Equal(g.Bytes(), want[i]) {
						t.Errorf("burst of %d, datagram %d: %d bytes, want %d (content, boundary or order wrong)",
							burst.n, i, g.Len(), len(want[i]))
					}
					g.Release()
				}
				wantCalls := burst.n
				if batched {
					wantCalls = burst.calls
				}
				dSent := counterValue("transport/"+tc.net+"/datagrams_sent") - sent
				dCalls := counterValue("transport/"+tc.net+"/send_syscalls") - calls
				if dSent != uint64(burst.n) || dCalls != uint64(wantCalls) {
					t.Errorf("burst of %d: datagrams_sent +%d, send_syscalls +%d; want +%d, +%d",
						burst.n, dSent, dCalls, burst.n, wantCalls)
				}
			}
		})
	}
}

// TestReactorSendBufsOversizeMidBurst: an oversize element aborts the
// burst at its index with the valid prefix on the wire and counted
// exactly — through the batched path and, for a burst the kernel cannot
// segment, through sendmmsg alike.
func TestReactorSendBufsOversizeMidBurst(t *testing.T) {
	ctx := ctxT(t)
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
	sc := acceptPeer(ctx, t, l, cli)
	defer sc.Close()

	for _, sizes := range [][]int{
		{700, 700, MaxDatagram + 1, 700}, // uniform prefix: one GSO sendmsg
		{700, 90, MaxDatagram + 1, 700},  // ragged prefix: sendmmsg
	} {
		bs, want := mkSizes(sizes...)
		err := core.SendBufs(ctx, sc, bs)
		if !errors.Is(err, core.ErrMessageTooLarge) {
			t.Fatalf("SendBufs(%v) = %v, want ErrMessageTooLarge", sizes, err)
		}
		if sent := core.BatchSent(err); sent != 2 {
			t.Fatalf("SendBufs(%v): BatchError.Sent = %d, want 2", sizes, sent)
		}
		for i, g := range recvN(ctx, t, cli, 2) {
			if !bytes.Equal(g.Bytes(), want[i]) {
				t.Errorf("SendBufs(%v): datagram %d is %d bytes, want %d", sizes, i, g.Len(), len(want[i]))
			}
			g.Release()
		}
	}
}

// TestReactorConcurrentBursts has 64 connections of one listener burst
// at once (run under -race in CI): they share the listener's send state,
// so every peer must still receive exactly its own connection's
// datagrams, in order — and bursting must not have cost the connections
// any memory of their own.
func TestReactorConcurrentBursts(t *testing.T) {
	ctx := ctxT(t)
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rl := l.(ReactorListener)

	const conns, frags = 64, 14
	clis := make([]core.Conn, conns)
	srvs := make(map[string]core.Conn, conns)
	for i := range clis {
		cli, err := DialUDP("cli", l.Addr().Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		clis[i] = cli
		sc := acceptPeer(ctx, t, l, cli)
		defer sc.Close()
		srvs[sc.RemoteAddr().Addr] = sc
	}
	perConn := func() int64 {
		st := rl.ReactorStats()
		return st.ConnMemBytes / st.Conns
	}
	memBefore := perConn()

	var wg sync.WaitGroup
	for i, cli := range clis {
		sc := srvs[cli.LocalAddr().Addr]
		if sc == nil {
			t.Fatalf("no server connection for client %s", cli.LocalAddr().Addr)
		}
		// Connection i's fragments are filled with byte(i).
		bs := make([]*wire.Buf, frags)
		for f := range bs {
			n := 1209
			if f == frags-1 {
				n = 40
			}
			bs[f] = wire.NewBufFrom(0, bytes.Repeat([]byte{byte(i)}, n))
			bs[f].Bytes()[0] = byte(f)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := core.SendBufs(ctx, sc, bs); err != nil {
				t.Errorf("conn %d: SendBufs: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i, cli := range clis {
		for f, g := range recvN(ctx, t, cli, frags) {
			p := g.Bytes()
			if p[0] != byte(f) || p[len(p)-1] != byte(i) {
				t.Errorf("client %d datagram %d: fragment %d of connection %d", i, f, p[0], p[len(p)-1])
			}
			g.Release()
		}
	}
	if got := perConn(); got != memBefore {
		t.Errorf("mem per connection moved from %d to %d bytes across the bursts", memBefore, got)
	}
}

// TestReactorCloseJoins: when Close returns the reactor goroutines have
// exited and every buffer they held is back in the pool — no waiting,
// which is what lets the next test (or the next listener) take a clean
// baseline. A listener that never started closes cleanly too, and stays
// closed.
func TestReactorCloseJoins(t *testing.T) {
	ctx := ctxT(t)
	baseline := wire.BufsOutstanding()
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialUDP("cli", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sc := acceptPeer(ctx, t, l, cli)
	sc.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := l.(ReactorListener).ReactorStats().Goroutines; n != 0 {
		t.Fatalf("%d reactor goroutines still running after Close returned", n)
	}
	if got := wire.BufsOutstanding(); got != baseline {
		t.Fatalf("%d pooled buffers outstanding after Close returned, want the baseline %d", got, baseline)
	}

	idle, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := idle.Accept(ctx); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Accept on a listener closed before it started = %v, want ErrClosed", err)
	}
	if n := idle.(ReactorListener).ReactorStats().Goroutines; n != 0 {
		t.Fatalf("a closed listener started %d reactor goroutines", n)
	}
}

// TestReactorConcurrentStart starts eight listeners at the same moment
// (run under -race in CI), each wider than any listener before it so
// each has per-shard gauges to publish: the publishing must be
// serialized, and every listener comes up with its own shard count.
func TestReactorConcurrentStart(t *testing.T) {
	const listeners, base = 8, 16
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < listeners; i++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			l, err := ListenUDP("srv", "127.0.0.1:0")
			if err == nil {
				defer l.Close()
				err = l.(core.ReactorConfigurer).ConfigureReactor(core.ReactorConfig{Shards: base + i})
			}
			ready.Done()
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			if got := l.(ReactorListener).Shards(); got != base+i { // starts the reactor
				t.Errorf("listener %d: %d shards, want %d", i, got, base+i)
			}
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()
}
