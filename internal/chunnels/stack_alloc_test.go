package chunnels_test

import (
	"context"
	"testing"

	"github.com/bertha-net/bertha/internal/chunnels/framing"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// newStackPair builds the 3-deep serialize→framing→udp stack on both
// ends of a connected loopback UDP socket pair. Connected sockets (not
// the demultiplexing listener) keep the receive path free of
// per-datagram source-address allocations.
func newStackPair(tb testing.TB) (cli, srv core.Conn) {
	return newStackPairTelemetry(tb, nil)
}

// newStackPairTelemetry is newStackPair with every layer of the client
// stack wrapped in telemetry instrumentation recording into reg. A nil
// reg leaves the stack bare. The server side stays uninstrumented so
// the echo peer's cost doesn't leak into the client's measurement.
func newStackPairTelemetry(tb testing.TB, reg *telemetry.Registry) (cli, srv core.Conn) {
	tb.Helper()
	a, b, err := transport.UDPPair("cli", "srv")
	if err != nil {
		tb.Fatalf("udp pair: %v", err)
	}
	instr := func(c core.Conn, chunnelType, impl string) core.Conn {
		if reg == nil {
			return c
		}
		return core.Instrument(c, reg.Conn(chunnelType, impl))
	}
	wrap := func(c core.Conn, instrumented bool) core.Conn {
		if instrumented {
			c = instr(c, "transport", "udp")
		}
		f, err := framing.New(c, framing.DefaultMaxFrame)
		if err != nil {
			tb.Fatalf("framing: %v", err)
		}
		if instrumented {
			f = instr(f, "http2", "http2/sw")
		}
		s, err := serialize.New(f, serialize.FormatBincode)
		if err != nil {
			tb.Fatalf("serialize: %v", err)
		}
		return instr(s, "serialize", "serialize/bincode")
	}
	cli, srv = wrap(a, true), wrap(b, false)
	tb.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// echoLoop reflects every message back through the stack without
// copying: the received buffer's trimmed headers become exactly the
// headroom the reply's headers prepend into.
func echoLoop(srv core.Conn) {
	ctx := context.Background()
	for {
		b, err := core.RecvBuf(ctx, srv)
		if err != nil {
			return
		}
		if err := core.SendBuf(ctx, srv, b); err != nil {
			return
		}
	}
}

// batchEchoLoop reflects bursts back through the stack: drain a burst,
// return the burst, one vectored call each way.
func batchEchoLoop(srv core.Conn) {
	ctx := context.Background()
	bufs := make([]*wire.Buf, 64)
	for {
		n, err := core.RecvBufs(ctx, srv, bufs)
		if err != nil {
			return
		}
		if core.SendBufs(ctx, srv, bufs[:n]) != nil {
			return
		}
	}
}

// stackRoundTrip returns one 64-byte send → echo → receive over cli,
// reporting failures on t.
func stackRoundTrip(t *testing.T, cli core.Conn) func() {
	ctx := context.Background()
	payload := make([]byte, 64)
	headroom := core.HeadroomOf(cli)
	return func() {
		m := wire.NewBufFrom(headroom, payload)
		if err := core.SendBuf(ctx, cli, m); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		r, err := core.RecvBuf(ctx, cli)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if r.Len() != len(payload) {
			t.Errorf("echo len = %d, want %d", r.Len(), len(payload))
		}
		r.Release()
	}
}

// TestStackRoundTripAllocs is the regression gate for the pooled
// buffer path: a full round trip over the serialize→framing→udp stack —
// send with header prepends, zero-copy echo on the peer, receive with
// header trims — must stay at or below 2 allocations, down from ~8 with
// the copy-per-layer implementation. In steady state it measures 0; the
// budget of 2 absorbs a GC emptying the pools mid-run.
func TestStackRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cli, srv := newStackPair(t)
	go echoLoop(srv)

	roundTrip := stackRoundTrip(t, cli)
	roundTrip() // warm the buffer pools before measuring

	avg := testing.AllocsPerRun(100, roundTrip)
	if t.Failed() {
		t.FailNow()
	}
	if avg > 2 {
		t.Fatalf("stack round trip allocates %.2f objects/op, budget is 2", avg)
	}
}

// TestStackRoundTripAllocsInstrumented is TestStackRoundTripAllocs with
// telemetry enabled on every client layer. The budget stays at 2: the
// instrumentation is atomic adds against preallocated ConnMetrics, so
// enabling it must not cost a single extra allocation (steady state
// measures 0). It also cross-checks that the metrics actually recorded.
func TestStackRoundTripAllocsInstrumented(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	reg := telemetry.New()
	cli, srv := newStackPairTelemetry(t, reg)
	go echoLoop(srv)

	roundTrip := stackRoundTrip(t, cli)
	roundTrip() // warm the buffer pools before measuring

	const runs = 100
	avg := testing.AllocsPerRun(runs, roundTrip)
	if t.Failed() {
		t.FailNow()
	}
	if avg > 2 {
		t.Fatalf("instrumented stack round trip allocates %.2f objects/op, budget is 2", avg)
	}

	// Every layer must have observed every round trip.
	snap := reg.Snapshot()
	if len(snap.Conns) != 3 {
		t.Fatalf("instrumented layers = %d, want 3", len(snap.Conns))
	}
	for _, c := range snap.Conns {
		if c.Sends < runs || c.Recvs < runs {
			t.Errorf("%s/%s recorded %d sends / %d recvs, want ≥%d",
				c.Chunnel, c.Impl, c.Sends, c.Recvs, runs)
		}
	}
}

// TestStackBatchAllocs is the allocation gate for the vectored path: a
// full 32-message burst round trip — SendBufs with header stamping in
// one pass, batched echo on the peer, RecvBufs drain — must stay at or
// below 2 allocations per *burst* (steady state measures 0; the budget
// absorbs a GC emptying the pools mid-run). Everything is preallocated:
// the burst slices live outside the measured window, the buffers are
// pooled, and the transport's mmsg scratch and RawConn callbacks are
// created once at first use.
func TestStackBatchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const burst = 32
	cli, srv := newStackPair(t)
	go batchEchoLoop(srv)

	// A deadline-free context keeps the transport's ctx watcher off the
	// hot path; a lost datagram is covered by the suite timeout.
	ctx := context.Background()
	payload := make([]byte, 64)
	headroom := core.HeadroomOf(cli)
	out := make([]*wire.Buf, burst)
	in := make([]*wire.Buf, burst)

	roundTrip := func() {
		for i := range out {
			out[i] = wire.NewBufFrom(headroom, payload)
		}
		if err := core.SendBufs(ctx, cli, out); err != nil {
			t.Errorf("send burst: %v", err)
			return
		}
		got := 0
		for got < burst {
			n, err := core.RecvBufs(ctx, cli, in[:burst-got])
			if err != nil {
				t.Errorf("recv burst: %v", err)
				return
			}
			for _, b := range in[:n] {
				if b.Len() != len(payload) {
					t.Errorf("echo len = %d, want %d", b.Len(), len(payload))
				}
			}
			core.ReleaseAll(in[:n])
			got += n
		}
	}
	roundTrip() // warm the pools and the transport's batch scratch
	if t.Failed() {
		t.FailNow()
	}

	avg := testing.AllocsPerRun(50, roundTrip)
	if t.Failed() {
		t.FailNow()
	}
	if avg > 2 {
		t.Fatalf("32-burst round trip allocates %.2f objects/burst, budget is 2", avg)
	}
}
