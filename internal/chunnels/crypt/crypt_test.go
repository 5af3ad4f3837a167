package crypt

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

var testKey = []byte("crypt test key")

func testSealer(t *testing.T) *sealer {
	t.Helper()
	s, err := newSealer(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSealOpenPooled seals a message in a pooled Buf where it lies —
// nonce into headroom, tag into tailroom — and opens it back in place.
func TestSealOpenPooled(t *testing.T) {
	s := testSealer(t)
	msg := []byte("a message to seal in place")
	b := wire.NewBufFrom(nonceLen, msg)
	if err := s.Encode(b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != nonceLen+len(msg)+s.aead.Overhead() || bytes.Contains(b.Bytes(), msg) {
		t.Fatalf("sealed: %d bytes, plaintext visible %v", b.Len(), bytes.Contains(b.Bytes(), msg))
	}
	if keep, err := s.Decode(b); !keep || err != nil {
		t.Fatalf("Decode = %v, %v", keep, err)
	}
	if !bytes.Equal(b.Bytes(), msg) {
		t.Fatalf("opened %q, want %q", b.Bytes(), msg)
	}
	b.Release()
}

// lendBetween lays body out in a backing between two neighbours, as a
// view with headroom bytes in front, and returns the backing's bytes, the
// neighbours and the view.
func lendBetween(headroom int, body []byte) (backing []byte, left, view, right *wire.Buf) {
	const side = 16
	b := wire.NewBuf(0, 2*side+headroom+len(body))
	backing = b.Bytes()
	copy(backing, bytes.Repeat([]byte{'L'}, side))
	copy(backing[side+headroom:], body)
	copy(backing[side+headroom+len(body):], bytes.Repeat([]byte{'R'}, side))
	s := wire.Share(b)
	left = s.Lend(0, 0, side)
	view = s.Lend(side, side+headroom, side+headroom+len(body))
	right = s.Lend(side+headroom+len(body), side+headroom+len(body), len(backing))
	s.Done()
	return backing, left, view, right
}

// checkOutside fails if backing changed anywhere but in [lo, hi).
func checkOutside(t *testing.T, backing, before []byte, lo, hi int) {
	t.Helper()
	for i := range backing {
		if (i < lo || i >= hi) && backing[i] != before[i] {
			t.Fatalf("backing byte %d, outside the view's region [%d, %d), changed", i, lo, hi)
		}
	}
}

// TestSealOpenView seals and opens on views that share a backing with
// neighbours. Sealing a view puts the nonce into its own headroom and,
// the view having no tailroom for the tag, moves it to a backing of its
// own: the neighbours are untouched. Opening a sealed view in place
// writes nothing outside the view's region.
func TestSealOpenView(t *testing.T) {
	s := testSealer(t)
	msg := []byte("plaintext in a view of a shared backing")
	base := wire.BufsOutstanding()

	backing, left, v, right := lendBetween(nonceLen, msg)
	before := bytes.Clone(backing)
	if err := s.Encode(v); err != nil {
		t.Fatal(err)
	}
	checkOutside(t, backing, before, 16, 16+nonceLen+len(msg))
	if string(left.Bytes()) != strings.Repeat("L", 16) || string(right.Bytes()) != strings.Repeat("R", 16) {
		t.Fatalf("neighbours after sealing a view: %q, %q", left.Bytes(), right.Bytes())
	}
	sealed := bytes.Clone(v.Bytes())
	if keep, err := s.Decode(v); !keep || err != nil || !bytes.Equal(v.Bytes(), msg) {
		t.Fatalf("open of the moved view = %q, %v, %v", v.Bytes(), keep, err)
	}
	v.Release()
	left.Release()
	right.Release()

	backing, left, v, right = lendBetween(0, sealed)
	before = bytes.Clone(backing)
	if keep, err := s.Decode(v); !keep || err != nil || !bytes.Equal(v.Bytes(), msg) {
		t.Fatalf("open in place = %q, %v, %v", v.Bytes(), keep, err)
	}
	checkOutside(t, backing, before, 16, 16+len(sealed))
	v.Release()
	left.Release()
	right.Release()
	if d := wire.BufsOutstanding() - base; d != 0 {
		t.Fatalf("%d pooled buffers left", d)
	}
}

// TestOpenRejects delivers a good message, then a tampered and a too
// short ciphertext, through the chunnel's connection: the good one
// arrives, the bad ones fail their receive and count in decode_dropped.
func TestOpenRejects(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	raw, peer := transport.Pipe(core.Addr{Addr: "a"}, core.Addr{Addr: "b"}, 4)
	defer raw.Close()
	c, err := New(peer, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dropped := telemetry.Default().Counter(DecodeDroppedCounter)
	before := dropped.Value()

	s := testSealer(t)
	b := wire.NewBufFrom(nonceLen, []byte("genuine"))
	if err := s.Encode(b); err != nil {
		t.Fatal(err)
	}
	good := b.CopyOut()
	tampered := bytes.Clone(good)
	tampered[nonceLen] ^= 1
	for _, tc := range []struct {
		name, want string
		wire       []byte
	}{
		{"good", "genuine", good},
		{"tampered", "authentication failed", tampered},
		{"short", "short ciphertext", good[:nonceLen+s.aead.Overhead()-1]},
	} {
		if err := raw.Send(ctx, tc.wire); err != nil {
			t.Fatal(err)
		}
		m, err := c.Recv(ctx)
		if tc.name == "good" {
			if err != nil || string(m) != tc.want {
				t.Fatalf("%s: Recv = %q, %v", tc.name, m, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Recv = %q, %v; want an error saying %q", tc.name, m, err, tc.want)
		}
	}
	if d := dropped.Value() - before; d != 2 {
		t.Fatalf("decode_dropped +%d, want +2", d)
	}
}
