package transport

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// parkRig is a unix listener, a client dialed to it, and the server's
// connection for that client, accepted on its first datagram and read.
type parkRig struct {
	l        core.Listener
	cli, srv core.Conn
}

func newParkRig(t *testing.T) *parkRig {
	t.Helper()
	ctx := ctxT(t)
	l, err := ListenUnix("h", filepath.Join(t.TempDir(), "srv.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cli, err := DialUnix("h", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	r := &parkRig{l: l, cli: cli}
	r.send(t, "one")
	if r.srv, err = l.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	r.recv(t, r.srv, "one")
	return r
}

func (r *parkRig) send(t *testing.T, msg string) {
	t.Helper()
	if err := r.cli.Send(ctxT(t), []byte(msg)); err != nil {
		t.Fatal(err)
	}
}

func (r *parkRig) recv(t *testing.T, c core.Conn, want string) {
	t.Helper()
	if m, err := c.Recv(ctxT(t)); err != nil || string(m) != want {
		t.Fatalf("server recv = %q, %v; want %q", m, err, want)
	}
}

func (r *parkRig) stats() core.ReactorStats {
	return r.l.(core.ReactorAccountant).ReactorStats()
}

func (r *parkRig) park(t *testing.T) {
	t.Helper()
	if !r.srv.(core.Parker).Park() {
		t.Fatal("Park refused an open unix peer")
	}
}

// TestParkedPeerReturns: a parked unix peer stays in its listener's
// table with no owner, and the client's next datagram makes Accept
// return the same connection, with the datagram, and no new peer:
// whether the datagram comes after Park or was already in the ring when
// Park ran.
func TestParkedPeerReturns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inRing bool
	}{{"later", false}, {"in ring", true}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newParkRig(t)
			peers := counterValue("transport/unix/peers_opened")
			if tc.inRing {
				r.send(t, "two")
				waitFor(t, 2*time.Second, "the datagram in the ring", func() bool {
					return r.stats().RingOccupied == 1
				})
			}
			r.park(t)
			if !tc.inRing {
				if got := r.stats().Conns; got != 1 {
					t.Fatalf("%d peers in the table after Park, want the parked one", got)
				}
				r.send(t, "two")
			}
			again, err := r.l.Accept(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			if again != r.srv {
				t.Fatal("Accept returned a new connection, not the parked one")
			}
			r.recv(t, again, "two")
			if got := counterValue("transport/unix/peers_opened") - peers; got != 0 {
				t.Errorf("the parked peer's return made %d peers, want 0", got)
			}
			// It parks again, as often as it is handed back.
			r.park(t)
			r.send(t, "three")
			if again, err = r.l.Accept(ctxT(t)); err != nil || again != r.srv {
				t.Fatalf("second return: Accept = %p, %v; want the parked %p", again, err, r.srv)
			}
			r.recv(t, again, "three")
		})
	}
}

// TestParkedPeerClose: a parked peer is closed as any other. Its Close
// takes it out of the table and lets its ring go, so the client's next
// datagram makes a new peer; the listener's Close closes it and returns
// every pooled buffer. A UDP peer is never parked.
func TestParkedPeerClose(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		r := newParkRig(t)
		r.park(t)
		r.srv.Close()
		if got := r.stats().Conns; got != 0 {
			t.Fatalf("a closed parked peer leaves %d peers in the table, want 0", got)
		}
		if r.srv.(core.Parker).Park() {
			t.Error("Park accepted a closed peer")
		}
		peers := counterValue("transport/unix/peers_opened")
		r.send(t, "two")
		c, err := r.l.Accept(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c == r.srv {
			t.Fatal("Accept returned the closed parked peer")
		}
		r.recv(t, c, "two")
		if got := counterValue("transport/unix/peers_opened") - peers; got != 1 {
			t.Errorf("the client's return made %d peers, want 1", got)
		}
		if _, err := r.srv.Recv(ctxT(t)); err != core.ErrClosed {
			t.Errorf("the closed parked peer's Recv = %v, want ErrClosed", err)
		}
	})
	t.Run("listener close", func(t *testing.T) {
		start := wire.BufsOutstanding()
		r := newParkRig(t)
		r.park(t)
		if err := r.l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.srv.Recv(ctxT(t)); err != core.ErrClosed {
			t.Errorf("a parked peer's Recv after the listener's Close = %v, want ErrClosed", err)
		}
		if got := wire.BufsOutstanding(); got != start {
			t.Errorf("%d pooled buffers outstanding after the listener's Close, want %d", got, start)
		}
	})
	t.Run("udp", func(t *testing.T) {
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
		if err := cli.Send(ctx, []byte("one")); err != nil {
			t.Fatal(err)
		}
		srv, err := l.Accept(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if srv.(core.Parker).Park() {
			t.Error("Park accepted a UDP peer")
		}
	})
}
