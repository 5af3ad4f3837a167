package kv_test

import (
	"bytes"
	"testing"

	"github.com/bertha-net/bertha/internal/kv"
	"github.com/bertha-net/bertha/internal/wire"
)

// referenceHandle is the model HandleBuf is fuzzed against: the request
// decoded into a Request of its own, applied, and the Response encoded —
// three copying steps with nothing shared between them (it is what the
// server ran before it decoded in place).
func referenceHandle(s *kv.Store, p []byte) []byte {
	e := wire.NewEncoder(nil)
	req, err := kv.DecodeRequest(p)
	if err != nil {
		var id uint64
		if len(p) >= 8 {
			id = wire.NewDecoder(p).Uint64()
		}
		kv.EncodeResponse(e, kv.Response{ID: id, Status: kv.StatusBadRequest})
		return e.Bytes()
	}
	kv.EncodeResponse(e, s.Apply(req))
	return e.Bytes()
}

// FuzzHandleBuf feeds a sequence of raw requests — the bytes a KV server
// takes off the network — to a store through HandleBuf and through
// HandleRaw, and to a second store through the reference model: the
// replies are the same byte for byte, nothing panics, and because every
// request buffer is overwritten as soon as its call returns, a value or
// key the store had kept by reference instead of by copy shows up as a
// differing reply later in the sequence.
//
// The input is a list of [length byte][request bytes] records.
func FuzzHandleBuf(f *testing.F) {
	enc := func(reqs ...kv.Request) []byte {
		var out []byte
		for _, r := range reqs {
			e := wire.NewEncoder(nil)
			if err := kv.EncodeRequest(e, r); err != nil {
				f.Fatal(err)
			}
			out = append(out, byte(e.Len()))
			out = append(out, e.Bytes()...)
		}
		return out
	}
	f.Add(enc(kv.Request{ID: 1, Op: kv.OpGet, Key: "a"}))
	f.Add(enc(
		kv.Request{ID: 1, Op: kv.OpPut, Key: "a", Value: []byte("one")},
		kv.Request{ID: 2, Op: kv.OpGet, Key: "a"},
		kv.Request{ID: 3, Op: kv.OpUpdate, Key: "a", Value: []byte("two")},
		kv.Request{ID: 4, Op: kv.OpUpdate, Key: "b", Value: []byte("absent")},
		kv.Request{ID: 5, Op: kv.OpGet, Key: "a"},
		kv.Request{ID: 6, Op: kv.OpDelete, Key: "a"},
		kv.Request{ID: 7, Op: kv.OpDelete, Key: "a"},
		kv.Request{ID: 8, Op: kv.OpGet, Key: "a"},
	))
	f.Add(enc(kv.Request{ID: 9, Op: kv.Op(77), Key: "a"}, kv.Request{ID: 10, Op: kv.OpPut, Key: "a"}))
	f.Add([]byte{3, 1, 2, 3, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		viaBuf, viaRaw, model := kv.NewStore(), kv.NewStore(), kv.NewStore()
		for len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			p := data[:n]
			data = data[n:]

			want := append([]byte(nil), referenceHandle(model, p)...)

			req, reply := wire.NewBufFrom(0, p), wire.NewBuf(16, 0)
			viaBuf.HandleBuf(req, reply)
			if !bytes.Equal(reply.Bytes(), want) {
				t.Fatalf("HandleBuf(%x) = %x, the model says %x", p, reply.Bytes(), want)
			}
			if reply.Headroom() != 16 {
				t.Fatalf("HandleBuf(%x) left %d bytes of the reply's headroom, want 16", p, reply.Headroom())
			}
			// What HandleBuf was given is gone when it returns.
			for i, b := range req.Bytes() {
				req.Bytes()[i] = ^b
			}
			req.Release()
			reply.Release()

			raw := append([]byte(nil), p...)
			got := viaRaw.HandleRaw(raw)
			if !bytes.Equal(got, want) {
				t.Fatalf("HandleRaw(%x) = %x, the model says %x", p, got, want)
			}
			for i := range raw {
				raw[i] = ^raw[i]
			}
		}
		if viaBuf.Len() != model.Len() || viaRaw.Len() != model.Len() {
			t.Fatalf("stores hold %d and %d keys, the model %d", viaBuf.Len(), viaRaw.Len(), model.Len())
		}
	})
}
