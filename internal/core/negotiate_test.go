package core

import (
	"bytes"
	"context"
	"testing"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// FuzzServerHello feeds arbitrary bytes to DecodeServerHello, as the
// client reads a ServerHello after its message-type byte. The hello's
// parameters reach the client's chunnels: localfast's [addr] carries
// the address DialUnix binds by, a unix listener's path and
// network namespace split at a NUL. A decode either fails or yields a
// hello that re-encodes to a message that decodes to the same hello.
func FuzzServerHello(f *testing.F) {
	ipcAddr := wire.List(wire.Str("unix"), wire.Str("box"), wire.Str("/run/app/ipc.sock\x00net:[4026531833]"))
	sh := &ServerHello{
		Nonce: 7, Name: "srv", Host: "box",
		Stack: []ResolvedNode{{
			Type: "ipc", ImplName: "ipc/splice",
			Endpoint: spec.EndpointBoth, Owner: SideServer, Location: LocUserspace,
			Params: []wire.Value{ipcAddr},
		}},
	}
	seed := encodeHello(sh)[1:] // after the message-type byte, as the client reads it
	if got, err := DecodeServerHello(wire.NewDecoder(seed)); err != nil || len(got.Stack) != 1 ||
		len(got.Stack[0].Params) != 1 || !got.Stack[0].Params[0].Equal(ipcAddr) {
		f.Fatalf("the localfast hello decodes to %+v, %v", got, err)
	}
	f.Add(seed)
	// The same hello carrying its rendezvous ticket, which is encoded
	// last and only when set.
	sh.Ticket = bytes.Repeat([]byte{0xa5}, ticketLen)
	ticketed := encodeHello(sh)[1:]
	if !bytes.HasPrefix(ticketed, seed) {
		f.Fatal("a ticketed hello does not start with the same hello without one")
	}
	if got, err := DecodeServerHello(wire.NewDecoder(ticketed)); err != nil || !bytes.Equal(got.Ticket, sh.Ticket) {
		f.Fatalf("the ticketed hello decodes to %+v, %v", got, err)
	}
	f.Add(ticketed)
	f.Add(encodeHello(&ServerHello{Nonce: 1, Name: "srv", Err: "no implementation"})[1:])
	f.Add([]byte{protoVersion})
	f.Fuzz(func(t *testing.T, msg []byte) {
		h, err := DecodeServerHello(wire.NewDecoder(msg))
		if err != nil {
			return
		}
		again := encodeHello(h)
		d := wire.NewDecoder(again)
		if mt := d.Uint8(); mt != msgServerHello {
			t.Fatalf("re-encoded hello has message type %d", mt)
		}
		h2, err := DecodeServerHello(d)
		if err != nil {
			t.Fatalf("a decoded hello re-encodes to a message that does not decode: %v", err)
		}
		if h2.Nonce != h.Nonce || h2.Name != h.Name || h2.Host != h.Host || h2.Err != h.Err ||
			len(h2.Stack) != len(h.Stack) || !bytes.Equal(h2.Ticket, h.Ticket) {
			t.Fatalf("hello %+v re-decodes as %+v", h, h2)
		}
		// The encoding holds every field the wire carries, map keys in
		// sorted order, so equal hellos encode to equal bytes.
		if !bytes.Equal(encodeHello(h2), again) {
			t.Fatalf("hello %+v re-decodes as %+v", h, h2)
		}
	})
}

// FuzzResume feeds arbitrary bytes to both resume decoders: the
// server's of the request a client presents on its IPC connection, and
// the client's of the server's answer. Malformed input fails without a
// panic, and what decodes re-encodes to the same bytes.
func FuzzResume(f *testing.F) {
	var t, next ticket
	for i := range t {
		t[i], next[i] = byte(i), byte(100+i)
	}
	f.Add(encodeResume(t))
	f.Add(encodeResume(next)) // ends a server's view
	f.Add(resumeAnswer{presented: t, ok: true, next: next, issued: true}.encode())
	f.Add(resumeAnswer{presented: t, ok: true}.encode())
	f.Add(resumeAnswer{presented: t}.encode())
	f.Add([]byte{tagCtrl, msgResumeOK})       // the answer before it named its ticket
	f.Add([]byte("00112233445566778899aabb")) // printable, not led by a 0 byte
	f.Add([]byte{tagCtrl})
	srv, err := NewEndpoint("srv", nil, WithRegistry(NewRegistry()), WithTelemetry(telemetry.New()))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(tt *testing.T, msg []byte) {
		got, err := decodeResume(msg)
		if err == nil && !bytes.Equal(encodeResume(got), msg) {
			tt.Fatalf("request %x decodes to ticket %x, which encodes to %x", msg, got, encodeResume(got))
		}
		// A server's view ends exactly at the request for its next
		// ticket: the same bytes, and nothing else.
		if isResume(msg, next) != bytes.Equal(msg, encodeResume(next)) {
			tt.Fatalf("isResume(%x, %x) = %t, want it only for the request's own bytes", msg, next, isResume(msg, next))
		}
		if err == nil && !isResume(msg, got) {
			tt.Fatalf("request %x does not present the ticket %x it decodes to", msg, got)
		}
		// And so does a server's lease: msg received on it is handed to
		// the endpoint's resume sink (which rejects the unknown ticket on
		// the base and closes it), and the view ends, exactly when msg is
		// that request; otherwise the application receives msg.
		base := &queuedConn{sinkConn: &sinkConn{}, msg: msg}
		l := &lease{Datapath: Resolve(base), base: base, ep: srv, side: SideServer, next: next}
		b, rerr := l.RecvBuf(context.Background())
		rejected := resumeAnswer{presented: next}.encode()
		if bytes.Equal(msg, encodeResume(next)) {
			if rerr != ErrClosed || !base.closed || len(base.msgs) != 1 || !bytes.Equal(base.msgs[0], rejected) {
				tt.Fatalf("the request for the next ticket: receive %v, base closed %t, sent %x; want ErrClosed, the base handed on and rejected", rerr, base.closed, base.msgs)
			}
			if err := l.Send(context.Background(), []byte("late")); err != ErrClosed {
				tt.Fatalf("a send on the ended view returned %v, want ErrClosed", err)
			}
		} else {
			if rerr != nil || !bytes.Equal(b.Bytes(), msg) || base.closed {
				tt.Fatalf("%x received on a lease for %x: %v, base closed %t; want it delivered", msg, next, rerr, base.closed)
			}
			b.Release()
		}
		a, err := decodeResumeAnswer(msg)
		if err != nil {
			return
		}
		if again := a.encode(); !bytes.Equal(again, msg) {
			tt.Fatalf("answer %x decodes to %+v, which encodes to %x", msg, a, again)
		}
	})
}

// encodeResume is the request that presents t, as bytes.
func encodeResume(t ticket) []byte { return resumeRequest(t).CopyOut() }

// encode is a as bytes.
func (a resumeAnswer) encode() []byte { return a.buf().CopyOut() }

// queuedConn receives msg once, then ErrClosed; what is sent on it is
// recorded.
type queuedConn struct {
	*sinkConn
	msg []byte
}

func (q *queuedConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	if q.msg == nil {
		return nil, ErrClosed
	}
	b := wire.NewBufFrom(0, q.msg)
	q.msg = nil
	return b, nil
}
