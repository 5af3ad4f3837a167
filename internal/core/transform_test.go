package core_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/crypt"
	"github.com/bertha-net/bertha/internal/chunnels/ordering"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/chunnels/traced"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// The datapath contract of every chunnel in the declarative form
// (core.Transform) lives once, in core.TransformConn; this is its one
// test, table-driven over every transform in the tree. A case names the
// datagrams its Decode rejects, consumes and passes through untouched;
// the contract is what the connection does with each.

type transformCase struct {
	name     string
	wrap     func(c core.Conn) core.Conn
	overhead int
	counter  string
	// rejected datagrams are bad messages: the error of a single receive,
	// dropped and counted inside a burst.
	rejected func(t *testing.T) [][]byte
	// consumed datagrams are taken by the transform without a word.
	consumed [][]byte
	// passed datagrams are delivered as they arrived.
	passed [][]byte
}

func must(c core.Conn, err error) core.Conn {
	if err != nil {
		panic(err)
	}
	return c
}

var cryptKey = []byte("contract key")

func wrapCrypt(c core.Conn) core.Conn { return must(crypt.New(c, cryptKey)) }

// onWire returns what wrap puts on the wire for payload.
func onWire(t *testing.T, wrap func(core.Conn) core.Conn, payload []byte) []byte {
	t.Helper()
	a, b := transport.Pipe(core.Addr{}, core.Addr{}, 4)
	snd := wrap(a)
	defer snd.Close()
	defer b.Close()
	if err := snd.Send(ctxT(t), payload); err != nil {
		t.Fatal(err)
	}
	raw, err := b.Recv(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

var transformCases = []transformCase{
	{
		name:     "serialize",
		wrap:     func(c core.Conn) core.Conn { return must(serialize.New(c, serialize.FormatBincode)) },
		overhead: 1,
		counter:  serialize.DecodeDroppedCounter,
		rejected: func(*testing.T) [][]byte { return [][]byte{{0x7f, 'x'}, {}} }, // wrong tag, no tag
	},
	{
		name:     "crypt",
		wrap:     wrapCrypt,
		overhead: 12,
		counter:  crypt.DecodeDroppedCounter,
		rejected: func(t *testing.T) [][]byte {
			tampered := onWire(t, wrapCrypt, []byte("payload"))
			tampered[len(tampered)-1] ^= 0xff
			otherKey := onWire(t, func(c core.Conn) core.Conn { return must(crypt.New(c, []byte("another key"))) }, []byte("payload"))
			return [][]byte{tampered, otherKey, []byte("short")}
		},
	},
	{
		name:     "traced",
		wrap:     func(c core.Conn) core.Conn { return traced.New(c) },
		overhead: tracing.ContextSize,
		counter:  traced.DecodeDroppedCounter,
		// No context, and a sampled flag without the bytes of one: the
		// peer does not run the chunnel, the payload is the layers' above.
		passed: [][]byte{[]byte("no context"), {tracing.FlagSampled, 1, 2}},
	},
	{
		name:     "mux",
		wrap:     core.MuxDataConn,
		overhead: 1,
		counter:  core.MuxDroppedCounter,
		rejected: func(*testing.T) [][]byte { return [][]byte{{}} },
		// An unknown tag, and control traffic that means nothing.
		consumed: [][]byte{{0x7f, 'x'}, {0x00}, {0x00, 0xee}},
	},
}

func TestTransformContract(t *testing.T) {
	for _, tc := range transformCases {
		t.Run(tc.name, func(t *testing.T) { testTransformContract(t, tc) })
	}
}

func testTransformContract(t *testing.T, tc transformCase) {
	ctx := ctxT(t)
	base := wire.BufsOutstanding()
	var rejected [][]byte
	if tc.rejected != nil {
		rejected = tc.rejected(t)
	}
	raw, rawPeer := transport.Pipe(core.Addr{Net: "pipe", Addr: "a"}, core.Addr{Net: "pipe", Addr: "b"}, 64)
	snd, rcv := tc.wrap(raw), tc.wrap(rawPeer)
	dropped := telemetry.Default().Counter(tc.counter)
	inject := func(datagrams ...[]byte) {
		t.Helper()
		for _, d := range datagrams {
			if err := raw.Send(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	send := func(payloads ...string) {
		t.Helper()
		for _, p := range payloads {
			if err := snd.Send(ctx, []byte(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	into := make([]*wire.Buf, 32)
	// recvBurst receives one burst and returns its payloads.
	recvBurst := func() ([]string, error) {
		n, err := core.RecvBufs(ctx, rcv, into)
		var got []string
		for _, b := range into[:n] {
			got = append(got, string(b.Bytes()))
			b.Release()
		}
		return got, err
	}
	if got := core.HeadroomOf(rcv); got != tc.overhead {
		t.Fatalf("Headroom() = %d over a transport wanting none; the transform declares %d", got, tc.overhead)
	}
	if n, err := core.RecvBufs(ctx, rcv, nil); n != 0 || err != nil {
		t.Fatalf("RecvBufs into nothing = (%d, %v), want (0, nil)", n, err)
	}

	// A burst with every kind of datagram between the good ones: the bad
	// and the consumed go, the rest keep their order.
	d0 := dropped.Value()
	want := []string{"one", "two", "three"}
	send("one")
	inject(rejected...)
	send("two")
	inject(tc.consumed...)
	send("three")
	inject(tc.passed...)
	for _, p := range tc.passed {
		want = append(want, string(p))
	}
	got, err := recvBurst()
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("mixed burst = (%q, %v), want %q", got, err, want)
	}
	if d := dropped.Value() - d0; d != uint64(len(rejected)) {
		t.Fatalf("%s moved by %d over a burst with %d bad messages", tc.counter, d, len(rejected))
	}

	// A burst of nothing but bad messages is the one that fails.
	if len(rejected) > 0 {
		inject(rejected...)
		if got, err := recvBurst(); err == nil || len(got) != 0 {
			t.Fatalf("all-bad burst = (%q, %v), want an error and nothing delivered", got, err)
		}
	}
	// A burst of nothing but consumed messages is no reason to return.
	inject(tc.consumed...)
	send("after")
	if got, err := recvBurst(); err != nil || !slices.Equal(got, []string{"after"}) {
		t.Fatalf("burst behind consumed messages = (%q, %v)", got, err)
	}

	// One at a time, a bad message is that receive's error — and counted
	// — and the connection goes on.
	d0 = dropped.Value()
	for _, bad := range rejected {
		inject(bad)
		if b, err := core.RecvBuf(ctx, rcv); err == nil {
			b.Release()
			t.Fatalf("RecvBuf delivered the bad message %x", bad)
		}
	}
	if d := dropped.Value() - d0; d != uint64(len(rejected)) {
		t.Fatalf("%s moved by %d over %d bad single receives", tc.counter, d, len(rejected))
	}

	// RecvBuf, RecvBufs and Recv interleave on one connection.
	inject(tc.consumed...)
	send("a", "b", "c", "d")
	b, err := core.RecvBuf(ctx, rcv)
	if err != nil || string(b.Bytes()) != "a" {
		t.Fatalf("RecvBuf = (%v, %v), want a", b, err)
	}
	b.Release()
	n, err := core.RecvBufs(ctx, rcv, into[:2])
	if err != nil || n != 2 || string(into[0].Bytes()) != "b" || string(into[1].Bytes()) != "c" {
		t.Fatalf("RecvBufs = (%d, %v), want b c", n, err)
	}
	core.ReleaseAll(into[:n])
	if p, err := rcv.Recv(ctx); err != nil || string(p) != "d" {
		t.Fatalf("Recv = (%q, %v), want d", p, err)
	}

	// The burst send path, and messages left unread at Close.
	out := []*wire.Buf{
		wire.NewBufFrom(core.HeadroomOf(snd), []byte("x")),
		wire.NewBufFrom(core.HeadroomOf(snd), []byte("y")),
	}
	if err := core.SendBufs(ctx, snd, out); err != nil {
		t.Fatal(err)
	}
	if got, err := recvBurst(); err != nil || !slices.Equal(got, []string{"x", "y"}) {
		t.Fatalf("SendBufs burst = (%q, %v)", got, err)
	}
	send("unread")
	inject(rejected...)
	snd.Close()
	rcv.Close()
	settle(t, base)
}

// failNth is a transform whose Encode fails on its nth call.
type failNth struct{ calls, n int }

var errEncode = errors.New("encode failed")

func (f *failNth) Overhead() int { return 1 }

func (f *failNth) Encode(b *wire.Buf) error {
	if f.calls++; f.calls == f.n {
		return errEncode
	}
	b.Prepend(1)[0] = 0xee
	return nil
}

func (f *failNth) Decode(b *wire.Buf) (bool, error) {
	b.TrimFront(1)
	return true, nil
}

// TestTransformEncodeFailure: an Encode failure in the middle of a burst
// sends nothing — not even the elements already encoded — releases every
// element and reports Sent 0; on the single path it releases the message
// and is the send's error.
func TestTransformEncodeFailure(t *testing.T) {
	ctx := ctxT(t)
	base := wire.BufsOutstanding()
	a, b := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	snd := core.WrapTransform(a, &failNth{n: 3}, "test/failnth/decode_dropped")
	rcv := core.WrapTransform(b, &failNth{}, "test/failnth/decode_dropped")
	burst := func(payloads ...string) []*wire.Buf {
		bs := make([]*wire.Buf, len(payloads))
		for i, p := range payloads {
			bs[i] = wire.NewBufFrom(snd.Headroom(), []byte(p))
		}
		return bs
	}
	err := snd.SendBufs(ctx, burst("1", "2", "3", "4"))
	if !errors.Is(err, errEncode) || core.BatchSent(err) != 0 {
		t.Fatalf("SendBufs with a failing Encode = %v (sent %d), want the encode error and 0 sent", err, core.BatchSent(err))
	}
	var be *core.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("SendBufs error %T is not a *BatchError", err)
	}
	if got := wire.BufsOutstanding(); got != base {
		t.Fatalf("%d pooled buffers outstanding after the aborted burst, want the baseline %d", got, base)
	}
	if err := snd.SendBufs(ctx, burst("5")); err != nil {
		t.Fatal(err)
	}
	if p, err := rcv.Recv(ctx); err != nil || string(p) != "5" {
		t.Fatalf("first message across = (%q, %v): the aborted burst leaked onto the wire", p, err)
	}

	single := core.WrapTransform(a, &failNth{n: 1}, "test/failnth/decode_dropped")
	if err := single.SendBuf(ctx, wire.NewBufFrom(single.Headroom(), []byte("6"))); !errors.Is(err, errEncode) {
		t.Fatalf("SendBuf with a failing Encode = %v", err)
	}
	snd.Close()
	rcv.Close()
	settle(t, base)
}

// TestTransformTraceContext: the trace transform carries a sampled
// context across and leaves an unsampled message unsampled, on both
// receive paths.
func TestTransformTraceContext(t *testing.T) {
	ctx := ctxT(t)
	a, b := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	snd, rcv := core.Resolve(traced.New(a)), core.Resolve(traced.New(b))
	defer snd.Close()
	defer rcv.Close()
	mk := func(sampled bool) *wire.Buf {
		m := wire.NewBufFrom(snd.Headroom(), []byte("m"))
		if sampled {
			m.SetTrace(42, 7, 3)
		}
		return m
	}
	if err := snd.SendBufs(ctx, []*wire.Buf{mk(true), mk(false)}); err != nil {
		t.Fatal(err)
	}
	if err := snd.SendBuf(ctx, mk(true)); err != nil {
		t.Fatal(err)
	}
	into := make([]*wire.Buf, 2)
	if n, err := rcv.RecvBufs(ctx, into); err != nil || n != 2 {
		t.Fatalf("RecvBufs = (%d, %v)", n, err)
	}
	if id, span, hop, ok := into[0].Trace(); !ok || id != 42 || span != 7 || hop != 3 {
		t.Fatalf("sampled context arrived as (%d, %d, %d, %v)", id, span, hop, ok)
	}
	if into[1].Traced() || string(into[1].Bytes()) != "m" {
		t.Fatalf("unsampled message arrived traced=%v as %q", into[1].Traced(), into[1].Bytes())
	}
	core.ReleaseAll(into)
	m, err := rcv.RecvBuf(ctx)
	if err != nil || !m.Traced() {
		t.Fatalf("RecvBuf = (%v, %v), want the sampled message", m, err)
	}
	m.Release()
}

// TestOrderingSendHalf: ordering's send half is a transform (its reorder
// buffer is not): the sequence numbers of single and burst sends run on,
// a message too short for one is dropped and counted, and the headroom is
// the header's.
func TestOrderingSendHalf(t *testing.T) {
	ctx := ctxT(t)
	base := wire.BufsOutstanding()
	a, b := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	snd, rcv := must(ordering.New(a, 8, time.Second)), must(ordering.New(b, 8, time.Second))
	if got := core.HeadroomOf(snd); got != 8 {
		t.Fatalf("Headroom() = %d, want the 8-byte sequence number", got)
	}
	dropped := telemetry.Default().Counter(ordering.DecodeDroppedCounter)
	d0 := dropped.Value()
	if err := a.Send(ctx, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if err := snd.Send(ctx, []byte("1")); err != nil {
		t.Fatal(err)
	}
	out := []*wire.Buf{wire.NewBufFrom(8, []byte("2")), wire.NewBufFrom(8, []byte("3"))}
	if err := core.SendBufs(ctx, snd, out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1", "2", "3"} {
		if p, err := rcv.Recv(ctx); err != nil || string(p) != want {
			t.Fatalf("Recv = (%q, %v), want %s", p, err, want)
		}
	}
	if d := dropped.Value() - d0; d != 1 {
		t.Fatalf("%s moved by %d over one short message", ordering.DecodeDroppedCounter, d)
	}
	snd.Close()
	rcv.Close()
	settle(t, base)
}

// stackOfThree is serialize |> encrypt |> trace by hand over one end of
// a pipe, and its declared overheads.
func stackOfThree(c core.Conn) core.Conn {
	return must(serialize.New(wrapCrypt(traced.New(c)), serialize.FormatBincode))
}

const stackOfThreeOverhead = 1 + 12 + tracing.ContextSize

// TestTransformStackHeadroom: a stack's headroom is the sum of what its
// transforms declare, computed as it is wrapped.
func TestTransformStackHeadroom(t *testing.T) {
	a, b := transport.Pipe(core.Addr{}, core.Addr{}, 1)
	defer b.Close()
	s := stackOfThree(a)
	defer s.Close()
	if got := core.HeadroomOf(s); got != stackOfThreeOverhead {
		t.Fatalf("Headroom() = %d, want the declared overheads' sum %d", got, stackOfThreeOverhead)
	}
}

// TestTransformStackAllocs is the allocation gate of the generic conn:
// a message, and a burst, cross three transforms each way without
// allocating (beside TestStackRoundTripAllocs and TestStackBatchAllocs,
// whose stacks have one transform each).
func TestTransformStackAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	a, b := transport.Pipe(core.Addr{}, core.Addr{}, 64)
	snd, rcv := core.Resolve(stackOfThree(a)), core.Resolve(stackOfThree(b))
	defer snd.Close()
	defer rcv.Close()
	payload := bytes.Repeat([]byte("p"), 64)

	single := func() {
		if err := snd.SendBuf(ctx, wire.NewBufFrom(stackOfThreeOverhead, payload)); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		m, err := rcv.RecvBuf(ctx)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		m.Release()
	}
	const burst = 8
	out, in := make([]*wire.Buf, burst), make([]*wire.Buf, burst)
	batch := func() {
		for i := range out {
			out[i] = wire.NewBufFrom(stackOfThreeOverhead, payload)
		}
		if err := snd.SendBufs(ctx, out); err != nil {
			t.Errorf("send burst: %v", err)
			return
		}
		n, err := rcv.RecvBufs(ctx, in)
		if err != nil || n != burst {
			t.Errorf("recv burst = (%d, %v)", n, err)
		}
		core.ReleaseAll(in[:n])
	}
	for name, run := range map[string]func(){"single": single, "burst": batch} {
		run() // warm the buffer pools
		if avg := testing.AllocsPerRun(100, run); avg >= 1 || t.Failed() {
			t.Fatalf("%s round trip through three transforms allocates %.2f objects/op, want 0", name, avg)
		}
	}
}

// FuzzTransformDecode feeds arbitrary datagrams to every transform's
// Decode — the serialize tag, the GCM open, the 16-byte trace context,
// the control/data mux and ordering's header check — through the
// connection built from it. Nothing may panic; a delivered message is
// never longer than the datagram it came in; and what was delivered, sent
// back through the transform, is delivered again unchanged.
func FuzzTransformDecode(f *testing.F) {
	cases := append([]transformCase{{
		name: "ordering",
		wrap: func(c core.Conn) core.Conn { return must(ordering.New(c, 4, time.Hour)) },
	}}, transformCases...)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x02}) // the mux's close announcement
	f.Add([]byte{tracing.FlagSampled, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 'p'})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 's', 'e', 'q'})
	for _, tc := range cases[1:] {
		a, b := transport.Pipe(core.Addr{}, core.Addr{}, 4)
		snd := tc.wrap(a)
		snd.Send(context.Background(), []byte("seed"))
		raw, _ := b.Recv(context.Background())
		f.Add(raw)
		snd.Close()
		b.Close()
	}
	f.Fuzz(func(t *testing.T, datagram []byte) {
		ctx := ctxT(t)
		for _, tc := range cases {
			raw, rawPeer := transport.Pipe(core.Addr{}, core.Addr{}, 4)
			snd, rcv := tc.wrap(raw), tc.wrap(rawPeer)
			// The sentinel ends the receive when the datagram is consumed.
			sentinel := []byte("the sentinel, longer than any header")
			raw.Send(ctx, datagram)
			snd.Send(ctx, sentinel)
			m, err := core.RecvBuf(ctx, rcv)
			if err == nil && !bytes.Equal(m.Bytes(), sentinel) {
				if m.Len() > len(datagram) {
					t.Fatalf("%s: a %d-byte datagram decoded to %d bytes", tc.name, len(datagram), m.Len())
				}
				delivered := append([]byte(nil), m.Bytes()...)
				if err := snd.Send(ctx, delivered); err != nil {
					t.Fatalf("%s: re-encode: %v", tc.name, err)
				}
				// The sentinel is ahead of it, unless ordering dropped it
				// for a sequence number the datagram had taken.
				for again := true; again; again = bytes.Equal(m.Bytes(), sentinel) {
					m.Release()
					if m, err = core.RecvBuf(ctx, rcv); err != nil {
						t.Fatalf("%s: receive behind a delivered datagram: %v", tc.name, err)
					}
				}
				if !bytes.Equal(m.Bytes(), delivered) {
					t.Fatalf("%s: %x re-encoded came back as %x", tc.name, delivered, m.Bytes())
				}
			}
			m.Release()
			snd.Close()
			rcv.Close()
		}
	})
}
