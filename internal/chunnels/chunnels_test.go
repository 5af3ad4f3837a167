// Package chunnels_test holds cross-chunnel integration and conformance
// tests: every data-transform chunnel must round-trip arbitrary payloads,
// compose with the others, and behave under loss where applicable.
package chunnels_test

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/compress"
	"github.com/bertha-net/bertha/internal/chunnels/crypt"
	"github.com/bertha-net/bertha/internal/chunnels/framing"
	"github.com/bertha-net/bertha/internal/chunnels/ordering"
	"github.com/bertha-net/bertha/internal/chunnels/reliable"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// wrapPair applies the same wrapper to both halves of a pipe.
func wrapPair(t *testing.T, wrap func(core.Conn) (core.Conn, error)) (core.Conn, core.Conn) {
	t.Helper()
	a, b := transport.Pipe(core.Addr{Addr: "a"}, core.Addr{Addr: "b"}, 2048)
	wa, err := wrap(a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := wrap(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wa.Close(); wb.Close() })
	return wa, wb
}

func roundTrip(t *testing.T, a, b core.Conn, payloads [][]byte) {
	t.Helper()
	ctx := ctxT(t)
	for _, p := range payloads {
		if err := a.Send(ctx, p); err != nil {
			t.Fatalf("send %d bytes: %v", len(p), err)
		}
	}
	for i, want := range payloads {
		got, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func samplePayloads() [][]byte {
	return [][]byte{
		[]byte("short"),
		{},
		bytes.Repeat([]byte("pattern"), 1000),
		make([]byte, 3),
	}
}

func TestCryptRoundTrip(t *testing.T) {
	a, b := wrapPair(t, func(c core.Conn) (core.Conn, error) {
		return crypt.New(c, []byte("secret key"))
	})
	roundTrip(t, a, b, samplePayloads())
}

func TestCryptRejectsTamperedAndWrongKey(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	a, _ := crypt.New(ra, []byte("key1"))
	bWrong, _ := crypt.New(rb, []byte("key2"))
	a.Send(ctx, []byte("hello"))
	if _, err := bWrong.Recv(ctx); err == nil {
		t.Error("wrong key must fail authentication")
	}
	// Tampered ciphertext.
	ra2, rb2 := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	a2, _ := crypt.New(ra2, []byte("key"))
	b2, _ := crypt.New(rb2, []byte("key"))
	a2.Send(ctx, []byte("payload"))
	raw, _ := rb2.Recv(ctx) // intercept below the crypt layer
	raw[len(raw)-1] ^= 0xFF
	rb2.Send(context.Background(), nil) // unused; direct injection instead
	// Re-inject through a fresh pair to simulate on-path tampering.
	ra3, rb3 := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	b3, _ := crypt.New(rb3, []byte("key"))
	ra3.Send(ctx, raw)
	if _, err := b3.Recv(ctx); err == nil {
		t.Error("tampered ciphertext must fail authentication")
	}
	_ = b2
}

func TestCryptCiphertextDiffersFromPlaintext(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	a, _ := crypt.New(ra, []byte("key"))
	msg := []byte("confidential data")
	a.Send(ctx, msg)
	raw, _ := rb.Recv(ctx)
	if bytes.Contains(raw, msg) {
		t.Error("ciphertext contains plaintext")
	}
	if len(raw) <= len(msg) {
		t.Error("ciphertext should carry nonce and tag overhead")
	}
}

func TestCompressRoundTrip(t *testing.T) {
	a, b := wrapPair(t, func(c core.Conn) (core.Conn, error) {
		return compress.New(c, 6)
	})
	roundTrip(t, a, b, samplePayloads())
}

func TestCompressActuallyCompresses(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	a, _ := compress.New(ra, 6)
	msg := bytes.Repeat([]byte("compressible "), 500)
	a.Send(ctx, msg)
	raw, _ := rb.Recv(ctx)
	if len(raw) >= len(msg)/2 {
		t.Errorf("compressed %d -> %d bytes: not compressing", len(msg), len(raw))
	}
}

func TestCompressInvalidLevel(t *testing.T) {
	ra, _ := transport.Pipe(core.Addr{}, core.Addr{}, 1)
	if _, err := compress.New(ra, 42); err == nil {
		t.Error("invalid level accepted")
	}
}

// TestCompressBoundsInflation: the bytes of one datagram may not size an
// unbounded allocation. 57 KB of deflated zeros (a 56 MiB message) fails
// the receive with ErrInflatedTooLarge; a message of exactly
// core.MaxMessage still crosses, and one byte more is refused at the
// sender.
func TestCompressBoundsInflation(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	a, _ := compress.New(ra, 1)
	b, _ := compress.New(rb, 1)
	defer a.Close()
	defer b.Close()

	var bomb bytes.Buffer
	w, _ := flate.NewWriter(&bomb, flate.BestCompression)
	zeros := make([]byte, 1<<20)
	for i := 0; i < 56; i++ {
		w.Write(zeros)
	}
	w.Close()
	if bomb.Len() > transport.MaxDatagram {
		t.Fatalf("the bomb is %d bytes, more than one datagram", bomb.Len())
	}
	if err := ra.Send(ctx, bomb.Bytes()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := b.Recv(ctx)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, compress.ErrInflatedTooLarge) {
		t.Fatalf("receiving a 56 MiB bomb: %v, want ErrInflatedTooLarge", err)
	}
	// ReadAll growing its slice up to the 4 MiB limit allocates ~20 MiB
	// in all; inflating the whole bomb would take several times its size.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("the refused bomb still allocated %d MiB", grew>>20)
	}

	atLimit := make([]byte, core.MaxMessage)
	rand.New(rand.NewSource(1)).Read(atLimit[:1024]) // mostly zeros: it must fit a pipe message either way
	if err := a.Send(ctx, atLimit); err != nil {
		t.Fatalf("send at the limit: %v", err)
	}
	got, err := b.Recv(ctx)
	if err != nil || !bytes.Equal(got, atLimit) {
		t.Fatalf("a message of exactly MaxMessage: %d bytes, %v", len(got), err)
	}
	if err := a.Send(ctx, make([]byte, core.MaxMessage+1)); !errors.Is(err, core.ErrMessageTooLarge) {
		t.Fatalf("send over the limit: %v, want ErrMessageTooLarge", err)
	}
}

func TestFramingRoundTripAndFragmentation(t *testing.T) {
	a, b := wrapPair(t, func(c core.Conn) (core.Conn, error) {
		return framing.New(c, 128) // force fragmentation
	})
	payloads := [][]byte{
		bytes.Repeat([]byte{0xCD}, 1000), // 8 fragments
		[]byte("small"),
		{},
		bytes.Repeat([]byte{0xEF}, 128), // exactly one fragment
		bytes.Repeat([]byte{0x01}, 129), // one byte over
	}
	roundTrip(t, a, b, payloads)
}

func TestFramingFragmentsOnWire(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 64)
	a, _ := framing.New(ra, 100)
	a.Send(ctx, bytes.Repeat([]byte{1}, 250)) // 3 fragments
	count := 0
	for {
		rctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		_, err := rb.Recv(rctx)
		cancel()
		if err != nil {
			break
		}
		count++
	}
	if count != 3 {
		t.Errorf("expected 3 fragments on the wire, saw %d", count)
	}
}

func TestFramingInterleavedStreams(t *testing.T) {
	// Two senders on the same conn interleave their fragments; the
	// receiver must reassemble both correctly by stream id.
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 2048)
	a, _ := framing.New(ra, 64)
	b, _ := framing.New(rb, 64)
	m1 := bytes.Repeat([]byte{0xAA}, 200)
	m2 := bytes.Repeat([]byte{0xBB}, 200)
	done := make(chan struct{})
	go func() {
		a.Send(ctx, m1)
		close(done)
	}()
	a.Send(ctx, m2)
	<-done
	got1, err1 := b.Recv(ctx)
	got2, err2 := b.Recv(ctx)
	if err1 != nil || err2 != nil {
		t.Fatalf("recv: %v %v", err1, err2)
	}
	sum := int(got1[0]) + int(got2[0])
	if sum != 0xAA+0xBB {
		t.Errorf("stream payloads corrupted: %#x %#x", got1[0], got2[0])
	}
	if len(got1) != 200 || len(got2) != 200 {
		t.Errorf("lengths: %d %d", len(got1), len(got2))
	}
}

func TestSerializeTagging(t *testing.T) {
	a, b := wrapPair(t, func(c core.Conn) (core.Conn, error) {
		return serialize.New(c, serialize.FormatBincode)
	})
	roundTrip(t, a, b, samplePayloads())

	if _, err := serialize.New(nil, "nope"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestSerializeObjConn(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	a := serialize.Objects[string](ra, serialize.StringCodec{})
	b := serialize.Objects[string](rb, serialize.StringCodec{})
	if err := a.Send(ctx, "typed message"); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx)
	if err != nil || got != "typed message" {
		t.Fatalf("recv: %q %v", got, err)
	}

	vA := serialize.Objects[wire.Value](ra, serialize.ValueCodec{})
	vB := serialize.Objects[wire.Value](rb, serialize.ValueCodec{})
	want := wire.Map(map[string]wire.Value{"op": wire.Str("get"), "n": wire.Int(3)})
	vA.Send(ctx, want)
	gotV, err := vB.Recv(ctx)
	if err != nil || !gotV.Equal(want) {
		t.Fatalf("value round trip: %s %v", gotV, err)
	}

	bcA := serialize.Objects[[]byte](ra, serialize.BytesCodec{})
	bcB := serialize.Objects[[]byte](rb, serialize.BytesCodec{})
	bcA.Send(ctx, []byte{1, 2, 3})
	gotB, err := bcB.Recv(ctx)
	if err != nil || !bytes.Equal(gotB, []byte{1, 2, 3}) {
		t.Fatalf("bytes round trip: %v %v", gotB, err)
	}
	if bcA.Conn() != ra {
		t.Error("Conn accessor")
	}
}

func TestReliableInOrderNoLoss(t *testing.T) {
	a, b := wrapPair(t, func(c core.Conn) (core.Conn, error) {
		return reliable.New(c, reliable.Config{})
	})
	ctx := ctxT(t)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			p := make([]byte, 4)
			p[0], p[1] = byte(i), byte(i>>8)
			a.Send(ctx, p)
		}
	}()
	for i := 0; i < n; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := int(m[0]) | int(m[1])<<8; got != i {
			t.Fatalf("out of order: got %d at %d", got, i)
		}
	}
}

func TestReliableRecoversFromLossDupsReorder(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 4096)
	// Perturb both directions: drops, dups, reordering.
	cfg := transport.LossConfig{Seed: 21, DropProb: 0.2, DupProb: 0.15, ReorderProb: 0.2, ReorderDelay: 5 * time.Millisecond}
	la := transport.Lossy(ra, cfg)
	cfg.Seed = 22
	lb := transport.Lossy(rb, cfg)
	a, _ := reliable.New(la, reliable.Config{RTO: 20 * time.Millisecond})
	b, _ := reliable.New(lb, reliable.Config{RTO: 20 * time.Millisecond})
	defer a.Close()
	defer b.Close()

	const n = 200
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			p := []byte{byte(i), byte(i >> 8)}
			if err := a.Send(ctx, p); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := int(m[0]) | int(m[1])<<8; got != i {
			t.Fatalf("exactly-once violated: got %d at %d", got, i)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestReliableBidirectional(t *testing.T) {
	a, b := wrapPair(t, func(c core.Conn) (core.Conn, error) {
		return reliable.New(c, reliable.Config{})
	})
	ctx := ctxT(t)
	const n = 100
	errc := make(chan error, 2)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(ctx, []byte{byte(i)}); err != nil {
				errc <- err
				return
			}
			if m, err := a.Recv(ctx); err != nil || m[0] != byte(i) {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	go func() {
		for i := 0; i < n; i++ {
			m, err := b.Recv(ctx)
			if err != nil {
				errc <- err
				return
			}
			if err := b.Send(ctx, m); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReliableBrokenPeerFails(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 64)
	// Black hole: every packet from a is dropped.
	blackhole := transport.Lossy(ra, transport.LossConfig{Seed: 1, DropProb: 1.0})
	a, _ := reliable.New(blackhole, reliable.Config{RTO: 5 * time.Millisecond, MaxRetries: 3})
	defer a.Close()
	_ = rb
	if err := a.Send(ctx, []byte("into the void")); err != nil {
		t.Fatalf("first send should succeed: %v", err)
	}
	// Recv should eventually report the broken connection.
	_, err := a.Recv(ctx)
	if err == nil {
		t.Fatal("expected failure after retransmissions exhausted")
	}
}

func TestReliableWindowBackpressure(t *testing.T) {
	ctx := ctxT(t)
	ra, _ := transport.Pipe(core.Addr{}, core.Addr{}, 4096)
	// No peer ARQ: acks never come, so the window must fill and block.
	a, _ := reliable.New(ra, reliable.Config{Window: 4, RTO: time.Hour})
	defer a.Close()
	for i := 0; i < 4; i++ {
		if err := a.Send(ctx, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	err := a.Send(sctx, []byte{9})
	if err == nil {
		t.Fatal("5th send should block on a window of 4")
	}
}

func TestOrderingReordersWithinBuffer(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 1024)
	la := transport.Lossy(ra, transport.LossConfig{Seed: 17, ReorderProb: 0.4, ReorderDelay: 3 * time.Millisecond})
	a, _ := ordering.New(la, 128, 200*time.Millisecond)
	b, _ := ordering.New(rb, 128, 200*time.Millisecond)
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			a.Send(ctx, []byte{byte(i)})
			time.Sleep(time.Millisecond) // let reordered packets interleave
		}
	}()
	for i := 0; i < n; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m[0] != byte(i) {
			t.Fatalf("ordering violated: got %d at %d", m[0], i)
		}
	}
}

func TestOrderingSkipsLostMessages(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 1024)
	b, _ := ordering.New(rb, 16, 20*time.Millisecond)
	// Inject seq 1, 3, 4 manually (2 lost forever).
	send := func(seq uint64, v byte) {
		buf := make([]byte, 9)
		buf[7] = byte(seq >> 56) // wrong spot; use binary below
		_ = buf
		msg := make([]byte, 9)
		for i := 0; i < 8; i++ {
			msg[i] = byte(seq >> (8 * i))
		}
		msg[8] = v
		ra.Send(ctx, msg)
	}
	send(1, 'a')
	send(3, 'c')
	send(4, 'd')
	got := ""
	for i := 0; i < 3; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		got += string(m)
	}
	if got != "acd" {
		t.Errorf("delivered %q, want acd (2 skipped)", got)
	}
}

func TestOrderingInvalidBuffer(t *testing.T) {
	if _, err := ordering.New(nil, 0, time.Millisecond); err == nil {
		t.Error("zero buffer accepted")
	}
}

// TestComposedStack layers serialize |> compress |> encrypt |> http2 |>
// reliable over a lossy pipe — the full §6-style pipeline — and checks
// end-to-end integrity.
func TestComposedStack(t *testing.T) {
	ctx := ctxT(t)
	ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 8192)
	la := transport.Lossy(ra, transport.LossConfig{Seed: 31, DropProb: 0.1})
	lb := transport.Lossy(rb, transport.LossConfig{Seed: 32, DropProb: 0.1})

	build := func(c core.Conn) core.Conn {
		r, err := reliable.New(c, reliable.Config{RTO: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		f, err := framing.New(r, 256)
		if err != nil {
			t.Fatal(err)
		}
		e, err := crypt.New(f, []byte("pipeline key"))
		if err != nil {
			t.Fatal(err)
		}
		z, err := compress.New(e, 6)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serialize.New(z, serialize.FormatBincode)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := build(la)
	b := build(lb)
	defer a.Close()
	defer b.Close()

	rng := rand.New(rand.NewSource(8))
	const n = 40
	sent := make(chan []byte, n)
	go func() {
		for i := 0; i < n; i++ {
			p := make([]byte, 1+rng.Intn(2000))
			rng.Read(p)
			sent <- p
			a.Send(ctx, p)
		}
	}()
	for i := 0; i < n; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := <-sent; !bytes.Equal(m, want) {
			t.Fatalf("message %d corrupted through the stack", i)
		}
	}
}

// Property: for any payload, each transform chunnel is lossless.
func TestQuickTransformsLossless(t *testing.T) {
	ctx := ctxT(t)
	type mk func(core.Conn) (core.Conn, error)
	cases := map[string]mk{
		"crypt":     func(c core.Conn) (core.Conn, error) { return crypt.New(c, []byte("k")) },
		"compress":  func(c core.Conn) (core.Conn, error) { return compress.New(c, 1) },
		"framing":   func(c core.Conn) (core.Conn, error) { return framing.New(c, 64) },
		"serialize": func(c core.Conn) (core.Conn, error) { return serialize.New(c, serialize.FormatBincode) },
	}
	for name, mkFn := range cases {
		t.Run(name, func(t *testing.T) {
			ra, rb := transport.Pipe(core.Addr{}, core.Addr{}, 4096)
			a, err := mkFn(ra)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mkFn(rb)
			if err != nil {
				t.Fatal(err)
			}
			f := func(p []byte) bool {
				if err := a.Send(ctx, p); err != nil {
					return false
				}
				got, err := b.Recv(ctx)
				return err == nil && bytes.Equal(got, p)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}
