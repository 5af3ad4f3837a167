package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// connPair abstracts the different transports for shared conformance tests.
type connPair struct {
	name string
	make func(t *testing.T) (core.Conn, core.Conn)
}

func pairs() []connPair {
	return []connPair{
		{
			name: "pipe",
			make: func(t *testing.T) (core.Conn, core.Conn) {
				a, b := Pipe(core.Addr{Net: "pipe", Host: "h1", Addr: "a"}, core.Addr{Net: "pipe", Host: "h1", Addr: "b"}, 16)
				t.Cleanup(func() { a.Close(); b.Close() })
				return a, b
			},
		},
		{
			name: "udp",
			make: func(t *testing.T) (core.Conn, core.Conn) {
				l, err := ListenUDP("srv", "127.0.0.1:0")
				if err != nil {
					t.Fatalf("listen: %v", err)
				}
				t.Cleanup(func() { l.Close() })
				cli, err := DialUDP("cli", l.Addr().Addr)
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				t.Cleanup(func() { cli.Close() })
				// The server side materializes on first datagram.
				if err := cli.Send(ctxT(t), []byte("hello")); err != nil {
					t.Fatalf("first send: %v", err)
				}
				srv, err := l.Accept(ctxT(t))
				if err != nil {
					t.Fatalf("accept: %v", err)
				}
				if msg, err := srv.Recv(ctxT(t)); err != nil || string(msg) != "hello" {
					t.Fatalf("priming recv: %q %v", msg, err)
				}
				t.Cleanup(func() { srv.Close() })
				return cli, srv
			},
		},
		{
			name: "unix",
			make: func(t *testing.T) (core.Conn, core.Conn) {
				path := filepath.Join(t.TempDir(), "srv.sock")
				l, err := ListenUnix("h1", path)
				if err != nil {
					t.Fatalf("listen: %v", err)
				}
				t.Cleanup(func() { l.Close() })
				cli, err := DialUnix("h1", path)
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				t.Cleanup(func() { cli.Close() })
				if err := cli.Send(ctxT(t), []byte("hello")); err != nil {
					t.Fatalf("first send: %v", err)
				}
				srv, err := l.Accept(ctxT(t))
				if err != nil {
					t.Fatalf("accept: %v", err)
				}
				if msg, err := srv.Recv(ctxT(t)); err != nil || string(msg) != "hello" {
					t.Fatalf("priming recv: %q %v", msg, err)
				}
				t.Cleanup(func() { srv.Close() })
				return cli, srv
			},
		},
	}
}

func TestConnConformance(t *testing.T) {
	for _, p := range pairs() {
		t.Run(p.name+"/roundtrip", func(t *testing.T) {
			a, b := p.make(t)
			ctx := ctxT(t)
			msgs := [][]byte{[]byte("one"), []byte("two"), bytes.Repeat([]byte{0xAA}, 4096)}
			for _, m := range msgs {
				if err := a.Send(ctx, m); err != nil {
					t.Fatalf("send: %v", err)
				}
			}
			for _, want := range msgs {
				got, err := b.Recv(ctx)
				if err != nil {
					t.Fatalf("recv: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("got %d bytes, want %d", len(got), len(want))
				}
			}
			// Reverse direction.
			if err := b.Send(ctx, []byte("back")); err != nil {
				t.Fatalf("reverse send: %v", err)
			}
			if got, err := a.Recv(ctx); err != nil || string(got) != "back" {
				t.Fatalf("reverse recv: %q %v", got, err)
			}
		})
		t.Run(p.name+"/boundaries", func(t *testing.T) {
			a, b := p.make(t)
			ctx := ctxT(t)
			// Message boundaries: two sends must not coalesce.
			a.Send(ctx, []byte("first"))
			a.Send(ctx, []byte("second"))
			m1, _ := b.Recv(ctx)
			m2, err := b.Recv(ctx)
			if err != nil || string(m1) != "first" || string(m2) != "second" {
				t.Errorf("boundaries violated: %q / %q / %v", m1, m2, err)
			}
		})
		t.Run(p.name+"/ctx-cancel", func(t *testing.T) {
			a, _ := p.make(t)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := a.Recv(ctx)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("expected deadline error, got %v", err)
			}
			// The conn must still be usable afterwards.
			b := ctxT(t)
			if err := a.Send(b, []byte("still alive")); err != nil {
				t.Errorf("send after cancelled recv: %v", err)
			}
		})
		t.Run(p.name+"/close-unblocks", func(t *testing.T) {
			a, _ := p.make(t)
			done := make(chan error, 1)
			go func() {
				_, err := a.Recv(context.Background())
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			a.Close()
			select {
			case err := <-done:
				if err == nil {
					t.Error("recv returned nil after close")
				}
			case <-time.After(2 * time.Second):
				t.Error("recv did not unblock on close")
			}
		})
		t.Run(p.name+"/concurrent", func(t *testing.T) {
			a, b := p.make(t)
			ctx := ctxT(t)
			const n = 200
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := a.Send(ctx, []byte(fmt.Sprintf("m%d", i))); err != nil {
						t.Errorf("send %d: %v", i, err)
						return
					}
				}
			}()
			got := map[string]bool{}
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					m, err := b.Recv(ctx)
					if err != nil {
						t.Errorf("recv %d: %v", i, err)
						return
					}
					got[string(m)] = true
				}
			}()
			wg.Wait()
			if len(got) != n {
				t.Errorf("received %d distinct messages, want %d", len(got), n)
			}
		})
	}
}

func TestPipeCloseSemantics(t *testing.T) {
	a, b := Pipe(core.Addr{Addr: "a"}, core.Addr{Addr: "b"}, 4)
	ctx := ctxT(t)
	a.Send(ctx, []byte("buffered"))
	a.Close()
	// Receiver drains buffered data after peer close.
	if m, err := b.Recv(ctx); err != nil || string(m) != "buffered" {
		t.Fatalf("drain after close: %q %v", m, err)
	}
	if _, err := b.Recv(ctx); !errors.Is(err, core.ErrClosed) {
		t.Errorf("expected ErrClosed, got %v", err)
	}
	if err := b.Send(ctx, []byte("x")); !errors.Is(err, core.ErrClosed) {
		t.Errorf("send to closed peer: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestPipeSendCopiesBuffer(t *testing.T) {
	a, b := Pipe(core.Addr{}, core.Addr{}, 4)
	ctx := ctxT(t)
	buf := []byte("original")
	a.Send(ctx, buf)
	copy(buf, "MUTATED!")
	got, _ := b.Recv(ctx)
	if string(got) != "original" {
		t.Errorf("send aliased caller buffer: %q", got)
	}
}

func TestPipeNetworkDialListen(t *testing.T) {
	n := NewPipeNetwork()
	ctx := ctxT(t)
	l, err := n.Listen("hostA", "svc:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("hostA", "svc:1"); err == nil {
		t.Error("duplicate bind should fail")
	}
	cli, err := n.DialFrom(ctx, "hostB", core.Addr{Net: "pipe", Addr: "svc:1"})
	if err != nil {
		t.Fatal(err)
	}
	// The listener gets the server end at the client end's first send.
	cli.Send(ctx, []byte("ping"))
	srv, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cli.LocalAddr().Host != "hostB" || srv.LocalAddr().Host != "hostA" {
		t.Errorf("host labels: cli=%s srv=%s", cli.LocalAddr(), srv.LocalAddr())
	}
	if cli.RemoteAddr().SameHost(cli.LocalAddr()) {
		t.Error("different hosts must not be SameHost")
	}
	if m, err := srv.Recv(ctx); err != nil || string(m) != "ping" {
		t.Fatalf("recv: %q %v", m, err)
	}
	// Dial to a missing address fails.
	if _, err := n.Dial(ctx, core.Addr{Net: "pipe", Addr: "nope"}); err == nil {
		t.Error("dial to unbound address should fail")
	}
	l.Close()
	if _, err := n.Dial(ctx, core.Addr{Net: "pipe", Addr: "svc:1"}); err == nil {
		t.Error("dial after listener close should fail")
	}
	// Rebinding after close works.
	if _, err := n.Listen("hostA", "svc:1"); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestUDPDemuxMultiplePeers(t *testing.T) {
	ctx := ctxT(t)
	l, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const npeers = 5
	clients := make([]core.Conn, npeers)
	for i := range clients {
		c, err := DialUDP("cli", l.Addr().Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		if err := c.Send(ctx, []byte(fmt.Sprintf("hi from %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < npeers; i++ {
		sc, err := l.Accept(ctx)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sc.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(m)] = true
		// Echo back; the right client must receive it.
		if err := sc.Send(ctx, append([]byte("echo: "), m...)); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != npeers {
		t.Errorf("distinct peers seen: %d", len(seen))
	}
	for i, c := range clients {
		m, err := c.Recv(ctx)
		if err != nil {
			t.Fatalf("client %d echo: %v", i, err)
		}
		want := fmt.Sprintf("echo: hi from %d", i)
		if string(m) != want {
			t.Errorf("client %d got %q want %q", i, m, want)
		}
	}
}

// TestUnixListenerKeepsPeerOrder sends numbered datagrams back to back
// from one unix peer to a listener configured for four reactor shards:
// they must arrive in the order sent, because a unix listener runs one
// reactor goroutine whatever it is configured with.
func TestUnixListenerKeepsPeerOrder(t *testing.T) {
	ctx := ctxT(t)
	path := filepath.Join(t.TempDir(), "order.sock")
	l, err := ListenUnix("srv", path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The ring holds every datagram, so none is dropped for a full ring.
	const n = 2000
	if err := l.(core.ReactorConfigurer).ConfigureReactor(core.ReactorConfig{Shards: 4, RingSize: 2 * n}); err != nil {
		t.Fatal(err)
	}
	c, err := DialUnix("cli", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c.Send(ctx, []byte(fmt.Sprint(i))); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	srv, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.(ReactorListener).Shards(); got != 1 {
		t.Errorf("unix listener runs %d reactor shards, want 1", got)
	}
	for i := 0; i < n; i++ {
		m, err := srv.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if string(m) != fmt.Sprint(i) {
			t.Fatalf("datagram %d arrived as %q: a peer's datagrams were reordered", i, m)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestDialUDPAddressForms dials a listener by an IPv4 literal, an IPv6
// literal and a hostname: the literals are parsed in place, the hostname
// is resolved, and each connection carries a datagram both ways and
// reports its addresses as the net package prints them.
func TestDialUDPAddressForms(t *testing.T) {
	for _, tc := range []struct{ name, bind, host string }{
		{"ipv4", "127.0.0.1:0", "127.0.0.1"},
		{"ipv6", "[::1]:0", "[::1]"},
		{"hostname", "127.0.0.1:0", "localhost"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := ctxT(t)
			l, err := ListenUDP("srv", tc.bind)
			if err != nil {
				t.Skipf("listen: %v (address family unavailable here)", err)
			}
			defer l.Close()
			_, port, _ := net.SplitHostPort(l.Addr().Addr)
			raddr := tc.host + ":" + port
			cli, err := DialUDP("cli", raddr)
			if err != nil {
				t.Skipf("dial %s: %v (name or family unavailable here)", raddr, err)
			}
			defer cli.Close()
			sc := acceptPeer(ctx, t, l, cli)
			defer sc.Close()
			if err := sc.Send(ctx, []byte("back")); err != nil {
				t.Fatal(err)
			}
			if m, err := cli.Recv(ctx); err != nil || string(m) != "back" {
				t.Fatalf("client recv = %q, %v", m, err)
			}
			if got := cli.RemoteAddr().Addr; got != raddr {
				t.Errorf("remote address %q, want %q as dialed", got, raddr)
			}
			want := cli.(*socketConn).conn.LocalAddr().String()
			if got := cli.LocalAddr().Addr; got != want || got != sc.RemoteAddr().Addr {
				t.Errorf("local address %q, want %q, which the server sees as %q", got, want, sc.RemoteAddr().Addr)
			}
		})
	}
}

func TestMessageTooLarge(t *testing.T) {
	ctx := ctxT(t)
	l, _ := ListenUDP("srv", "127.0.0.1:0")
	defer l.Close()
	c, _ := DialUDP("cli", l.Addr().Addr)
	defer c.Close()
	err := c.Send(ctx, make([]byte, MaxDatagram+1))
	if !errors.Is(err, core.ErrMessageTooLarge) {
		t.Errorf("expected ErrMessageTooLarge, got %v", err)
	}
}

func TestLossyDrop(t *testing.T) {
	a, b := Pipe(core.Addr{}, core.Addr{}, 256)
	ctx := ctxT(t)
	lossy := Lossy(a, LossConfig{Seed: 42, DropProb: 0.5})
	const n = 200
	for i := 0; i < n; i++ {
		lossy.Send(ctx, []byte{byte(i)})
	}
	a.Close()
	got := 0
	for {
		if _, err := b.Recv(ctx); err != nil {
			break
		}
		got++
	}
	if got == 0 || got == n {
		t.Errorf("drop rate 0.5 delivered %d of %d", got, n)
	}
	if got < n/4 || got > 3*n/4 {
		t.Errorf("implausible delivery count %d for p=0.5", got)
	}
}

func TestLossyDuplicate(t *testing.T) {
	a, b := Pipe(core.Addr{}, core.Addr{}, 1024)
	ctx := ctxT(t)
	lossy := Lossy(a, LossConfig{Seed: 7, DupProb: 1.0})
	const n = 20
	for i := 0; i < n; i++ {
		lossy.Send(ctx, []byte{byte(i)})
	}
	counts := map[byte]int{}
	for i := 0; i < 2*n; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		counts[m[0]]++
	}
	for i := 0; i < n; i++ {
		if counts[byte(i)] != 2 {
			t.Errorf("message %d delivered %d times, want 2", i, counts[byte(i)])
		}
	}
}

func TestLossyReorder(t *testing.T) {
	a, b := Pipe(core.Addr{}, core.Addr{}, 1024)
	ctx := ctxT(t)
	lossy := Lossy(a, LossConfig{Seed: 3, ReorderProb: 0.5, ReorderDelay: 30 * time.Millisecond})
	const n = 40
	for i := 0; i < n; i++ {
		lossy.Send(ctx, []byte{byte(i)})
	}
	var order []byte
	for i := 0; i < n; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		order = append(order, m[0])
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("reorder config delivered everything in order")
	}
}

func TestMultiDialer(t *testing.T) {
	ctx := ctxT(t)
	pn := NewPipeNetwork()
	l, _ := pn.Listen("h1", "svc")
	defer l.Close()
	md := &MultiDialer{HostID: "h2", Pipe: pn}
	c, err := md.Dial(ctx, core.Addr{Net: "pipe", Addr: "svc"})
	if err != nil {
		t.Fatalf("pipe dial: %v", err)
	}
	if c.LocalAddr().Host != "h2" {
		t.Errorf("host label: %s", c.LocalAddr())
	}
	if _, err := md.Dial(ctx, core.Addr{Net: "bogus", Addr: "x"}); err == nil {
		t.Error("unknown network should fail")
	}
	ul, err := ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ul.Close()
	uc, err := md.Dial(ctx, core.Addr{Net: "udp", Addr: ul.Addr().Addr})
	if err != nil {
		t.Fatalf("udp dial: %v", err)
	}
	uc.Close()
}
