package chunnels_test

import (
	"context"
	"testing"
	"time"
	"unsafe"

	"github.com/bertha-net/bertha/internal/chunnels/crypt"
	"github.com/bertha-net/bertha/internal/chunnels/framing"
	"github.com/bertha-net/bertha/internal/chunnels/ordering"
	"github.com/bertha-net/bertha/internal/chunnels/reliable"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/chunnels/traced"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// recorder is a bottom connection that notes where in memory each
// message it is handed starts, then passes it on to the connection it
// embeds. It reports no headroom of its own, as a transport does.
type recorder struct {
	core.Conn
	starts chan uintptr
}

// newRecorder's starts holds a handshake's messages, which the test
// skips, and the one it sends; note drops any beyond, such as an ARQ
// retransmission.
func newRecorder(c core.Conn) *recorder {
	return &recorder{Conn: c, starts: make(chan uintptr, 64)}
}

func startOf(p []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(p))) }

func (r *recorder) note(p []byte) {
	select {
	case r.starts <- startOf(p):
	default:
	}
}

func (r *recorder) Headroom() int { return 0 }

func (r *recorder) Send(ctx context.Context, p []byte) error {
	r.note(p)
	return r.Conn.Send(ctx, p)
}

func (r *recorder) SendBuf(ctx context.Context, b *wire.Buf) error {
	r.note(b.Bytes())
	return core.SendBuf(ctx, r.Conn, b)
}

func (r *recorder) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	return core.RecvBuf(ctx, r.Conn)
}

// TestStackHeadroomIsEnough checks the figure a stack reserves against
// the headers its layers write: a message allocated with exactly
// core.HeadroomOf(top) must reach the bottom in the backing it started
// in, its headers written into the reserved headroom. A layer whose
// Headroom (or Transform.Overhead) under-reports its header makes
// Prepend move the message to a new backing: the message still arrives
// intact, and a pooled swap allocates nothing, so only its address
// shows the copy.
func TestStackHeadroomIsEnough(t *testing.T) {
	key := []byte("headroom key")
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (top core.Conn, bottom *recorder)
	}{
		{"serialize", overRecorder(func(c core.Conn) (core.Conn, error) {
			return serialize.New(c, serialize.FormatBincode)
		})},
		{"crypt", overRecorder(func(c core.Conn) (core.Conn, error) { return crypt.New(c, key) })},
		{"framing", overRecorder(func(c core.Conn) (core.Conn, error) {
			return framing.New(c, framing.DefaultMaxFrame)
		})},
		{"reliable", overRecorder(func(c core.Conn) (core.Conn, error) {
			return reliable.New(c, reliable.Config{})
		})},
		{"ordering", overRecorder(func(c core.Conn) (core.Conn, error) {
			return ordering.New(c, ordering.DefaultBuffer, ordering.DefaultGapTimeout)
		})},
		{"traced", overRecorder(func(c core.Conn) (core.Conn, error) { return traced.New(c), nil })},
		{"negotiated", negotiatedOverRecorder(key)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top, bottom := tc.build(t)
			t.Cleanup(func() { top.Close() })
			for len(bottom.starts) > 0 {
				<-bottom.starts // the handshake's messages
			}

			m := wire.NewBufFrom(core.HeadroomOf(top), make([]byte, 64))
			// A traced message carries the trace chunnel's full context,
			// its largest header.
			m.SetTrace(1, 1, 0)
			start := startOf(m.Bytes())
			base := start - uintptr(m.Headroom())
			if err := core.SendBuf(ctxT(t), top, m); err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-bottom.starts:
				if got < base || got > start {
					t.Errorf("the message left its backing on the way down: it starts at %#x, outside the %d bytes of headroom it was given at %#x",
						got, start-base, base)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the message never reached the bottom")
			}
		})
	}
}

// overRecorder wraps a recorder over one end of a pipe whose other end
// nobody reads.
func overRecorder(wrap func(core.Conn) (core.Conn, error)) func(*testing.T) (core.Conn, *recorder) {
	return func(t *testing.T) (core.Conn, *recorder) {
		a, b := transport.Pipe(core.Addr{Addr: "a"}, core.Addr{Addr: "b"}, 16)
		t.Cleanup(func() { b.Close() })
		bottom := newRecorder(a)
		top, err := wrap(bottom)
		if err != nil {
			t.Fatal(err)
		}
		return top, bottom
	}
}

// negotiatedOverRecorder negotiates a serialize |> crypt |> framing
// stack over a recorded pipe dial, so the client's top includes core's
// own tag byte.
func negotiatedOverRecorder(key []byte) func(*testing.T) (core.Conn, *recorder) {
	return func(t *testing.T) (core.Conn, *recorder) {
		ctx := ctxT(t)
		reg := core.NewRegistry()
		serialize.Register(reg)
		crypt.Register(reg)
		framing.Register(reg)
		stack := spec.Seq(serialize.Node(serialize.FormatBincode), crypt.Node(key), framing.Node(framing.DefaultMaxFrame))
		srv, err := core.NewEndpoint("srv", stack, core.WithRegistry(reg), core.WithEnv(core.NewEnv("srvhost")))
		if err != nil {
			t.Fatal(err)
		}
		cli, err := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(reg), core.WithEnv(core.NewEnv("clihost")))
		if err != nil {
			t.Fatal(err)
		}
		pn := transport.NewPipeNetwork()
		base, err := pn.Listen("srvhost", "svc")
		if err != nil {
			t.Fatal(err)
		}
		nl, err := srv.Listen(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		// The first Accept starts the listener's admissions.
		accepted := make(chan core.Conn, 1)
		go func() {
			defer close(accepted)
			if c, err := nl.Accept(ctx); err == nil {
				accepted <- c
			}
		}()
		t.Cleanup(func() {
			nl.Close()
			for c := range accepted {
				c.Close()
			}
		})
		raw, err := pn.DialFrom(ctx, "clihost", base.Addr())
		if err != nil {
			t.Fatal(err)
		}
		bottom := newRecorder(raw)
		top, err := cli.Connect(ctx, bottom)
		if err != nil {
			t.Fatal(err)
		}
		return top, bottom
	}
}
