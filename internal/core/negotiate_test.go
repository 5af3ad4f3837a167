package core

import (
	"bytes"
	"testing"

	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// FuzzServerHello feeds arbitrary bytes to DecodeServerHello, as the
// client reads a ServerHello after its message-type byte. The hello's
// parameters reach the client's chunnels: localfast's [addr, token]
// carries the address DialUnix binds by, a unix listener's path and
// network namespace split at a NUL. A decode either fails or yields a
// hello that re-encodes to a message that decodes to the same hello.
func FuzzServerHello(f *testing.F) {
	ipcAddr := wire.List(wire.Str("unix"), wire.Str("box"), wire.Str("/run/app/ipc.sock\x00net:[4026531833]"))
	sh := &ServerHello{
		Nonce: 7, Name: "srv", Host: "box",
		Stack: []ResolvedNode{{
			Type: "ipc", ImplName: "ipc/splice",
			Endpoint: spec.EndpointBoth, Owner: SideServer, Location: LocUserspace,
			Params: []wire.Value{ipcAddr, wire.Str("00112233445566778899aabb")},
		}},
	}
	seed := encodeHello(sh)[1:] // after the message-type byte, as the client reads it
	if got, err := DecodeServerHello(wire.NewDecoder(seed)); err != nil || len(got.Stack) != 1 ||
		len(got.Stack[0].Params) != 2 || !got.Stack[0].Params[0].Equal(ipcAddr) {
		f.Fatalf("the localfast hello decodes to %+v, %v", got, err)
	}
	f.Add(seed)
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
		if h2.Nonce != h.Nonce || h2.Name != h.Name || h2.Host != h.Host || h2.Err != h.Err || len(h2.Stack) != len(h.Stack) {
			t.Fatalf("hello %+v re-decodes as %+v", h, h2)
		}
		// The encoding holds every field the wire carries, map keys in
		// sorted order, so equal hellos encode to equal bytes.
		if !bytes.Equal(encodeHello(h2), again) {
			t.Fatalf("hello %+v re-decodes as %+v", h, h2)
		}
	})
}
