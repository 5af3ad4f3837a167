package core_test

import (
	"context"
	"errors"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/wire"
)

// scriptConn is the layer under an instrumented wrapper: every call
// succeeds with msgLen-byte messages (RecvBufs fills burst of them)
// until err is set, after which every call fails with it — SendBufs
// after sending its first sent elements.
type scriptConn struct {
	core.Conn // nil: addresses and Close are never used
	msg       []byte
	burst     int
	err       error
	sent      int
}

const msgLen = 48

func newScript() *scriptConn { return &scriptConn{msg: make([]byte, msgLen), burst: 3} }

func (s *scriptConn) Send(ctx context.Context, p []byte) error { return s.err }

func (s *scriptConn) Recv(ctx context.Context) ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.msg, nil
}

func (s *scriptConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	b.Release()
	return s.err
}

func (s *scriptConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	if s.err != nil {
		return nil, s.err
	}
	return wire.NewBuf(0, msgLen), nil
}

func (s *scriptConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	core.ReleaseAll(bs)
	if s.err != nil {
		return &core.BatchError{Sent: s.sent, Err: s.err}
	}
	return nil
}

func (s *scriptConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := min(s.burst, len(into))
	for i := range into[:n] {
		into[i] = wire.NewBuf(0, msgLen)
	}
	return n, nil
}

func (s *scriptConn) Headroom() int { return 0 }

// instCall is one of the six datapath methods driven through an
// instrumented connection, with the number of messages one successful
// call moves.
type instCall struct {
	name string
	send bool
	msgs int
	call func(c core.Datapath) error
}

var errScript = errors.New("scripted failure")

func instCalls() []instCall {
	ctx := context.Background()
	p := make([]byte, msgLen)
	burst := make([]*wire.Buf, 5)
	return []instCall{
		{"Send", true, 1, func(c core.Datapath) error { return c.Send(ctx, p) }},
		{"SendBuf", true, 1, func(c core.Datapath) error { return c.SendBuf(ctx, wire.NewBuf(0, msgLen)) }},
		{"SendBufs", true, len(burst), func(c core.Datapath) error {
			for i := range burst {
				burst[i] = wire.NewBuf(0, msgLen)
			}
			return c.SendBufs(ctx, burst)
		}},
		{"Recv", false, 1, func(c core.Datapath) error { _, err := c.Recv(ctx); return err }},
		{"RecvBuf", false, 1, func(c core.Datapath) error {
			b, err := c.RecvBuf(ctx)
			if err == nil {
				b.Release()
			}
			return err
		}},
		{"RecvBufs", false, 3, func(c core.Datapath) error {
			n, err := c.RecvBufs(ctx, burst)
			core.ReleaseAll(burst[:n])
			return err
		}},
	}
}

func instrument(s *scriptConn, m *telemetry.ConnMetrics) core.Datapath {
	return core.Instrument(s, m).(core.Datapath)
}

// wantSample is how many of calls consecutive calls in one direction
// of one wrapper are timed: the first, then every 64th.
func wantSample(calls int) uint64 { return uint64((calls + 63) / 64) }

// TestInstrumentCountsExact drives each datapath method through
// successes, failures and (for SendBufs) a partial burst: every counter
// and burst histogram records every call, whatever the latency sample
// took.
func TestInstrumentCountsExact(t *testing.T) {
	const ok, failed = 150, 7
	for _, tc := range instCalls() {
		t.Run(tc.name, func(t *testing.T) {
			s := newScript()
			m := telemetry.New().Conn("layer", "impl")
			c := instrument(s, m)
			for i := 0; i < ok; i++ {
				if err := tc.call(c); err != nil {
					t.Fatal(err)
				}
			}
			s.err, s.sent = errScript, 2
			for i := 0; i < failed; i++ {
				if err := tc.call(c); !errors.Is(err, errScript) {
					t.Fatalf("call %d: err = %v, want the scripted failure", i, err)
				}
			}
			msgs, errs, bytes := m.Sends.Value(), m.SendErrs.Value(), m.SendBytes.Value()
			idle := []uint64{m.Recvs.Value(), m.RecvErrs.Value(), m.RecvBytes.Value()}
			batch := m.SendBatch.Count()
			if !tc.send {
				msgs, errs, bytes = m.Recvs.Value(), m.RecvErrs.Value(), m.RecvBytes.Value()
				idle = []uint64{m.Sends.Value(), m.SendErrs.Value(), m.SendBytes.Value()}
				batch = m.RecvBatch.Count()
			}
			wantMsgs := uint64(ok * tc.msgs)
			wantBytes := wantMsgs * msgLen
			wantBatch := uint64(0)
			switch tc.name {
			case "SendBufs":
				// A partial burst counts its transmitted prefix; its bytes
				// are the whole burst's, summed before ownership passed
				// down.
				wantMsgs += failed * 2
				wantBytes += failed * uint64(tc.msgs) * msgLen
				wantBatch = ok + failed
			case "RecvBufs":
				wantBatch = ok
			}
			if msgs != wantMsgs || bytes != wantBytes || errs != failed {
				t.Fatalf("counted %d messages / %d bytes / %d errors, want %d / %d / %d",
					msgs, bytes, errs, wantMsgs, wantBytes, failed)
			}
			if batch != wantBatch {
				t.Fatalf("burst histogram holds %d calls, want %d", batch, wantBatch)
			}
			for _, v := range idle {
				if v != 0 {
					t.Fatalf("the other direction counted %v", idle)
				}
			}
		})
	}
}

// TestInstrumentLatencySample pins the sampling rule: per wrapper and
// per direction, the first call and then every 64th is timed, and a
// burst call is one call.
func TestInstrumentLatencySample(t *testing.T) {
	const calls = 200
	for _, tc := range instCalls() {
		t.Run(tc.name, func(t *testing.T) {
			m := telemetry.New().Conn("layer", "impl")
			lat := &m.SendLatency
			if !tc.send {
				lat = &m.RecvLatency
			}
			// Two connections of one (chunnel, impl) pair share the
			// metrics and sample independently.
			a, b := instrument(newScript(), m), instrument(newScript(), m)
			for i := 0; i < calls; i++ {
				if err := tc.call(a); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := lat.Count(), wantSample(calls); got != want {
				t.Fatalf("%d calls timed %d, want %d", calls, got, want)
			}
			if err := tc.call(b); err != nil {
				t.Fatal(err)
			}
			if got, want := lat.Count(), wantSample(calls)+1; got != want {
				t.Fatalf("a second connection's first call left %d timed, want %d", got, want)
			}
		})
	}

	// Directions are sampled separately on one wrapper.
	m := telemetry.New().Conn("layer", "impl")
	c := instrument(newScript(), m)
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := c.SendBuf(ctx, wire.NewBuf(0, msgLen)); err != nil {
			t.Fatal(err)
		}
		b, err := c.RecvBuf(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	if s, r := m.SendLatency.Count(), m.RecvLatency.Count(); s != wantSample(100) || r != wantSample(100) {
		t.Fatalf("interleaved 100+100: timed %d sends / %d recvs, want %d each", s, r, wantSample(100))
	}
}

// TestInstrumentTracedAlwaysTimed: a Buf carrying a trace context is
// timed (and records a span) whatever the sample says, and a wrapper
// with an active span handle times every receive.
func TestInstrumentTracedAlwaysTimed(t *testing.T) {
	ctx := context.Background()
	const calls, every = 200, 10
	ring := tracing.NewSpanRing(1024)
	m := telemetry.New().Conn("layer", "impl")
	c := core.InstrumentTraced(newScript(), m, ring.Handle("layer", "impl")).(core.Datapath)
	sampled := map[int]bool{}
	for i := 0; i < calls; i++ {
		b := wire.NewBuf(0, msgLen)
		if i%every == 0 {
			b.SetTrace(tracing.NewTraceID(), 0, 0)
			sampled[i] = true
		}
		if i%64 == 0 {
			sampled[i] = true
		}
		if err := c.SendBuf(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.SendLatency.Count(); got != uint64(len(sampled)) {
		t.Fatalf("timed %d sends, want %d (every traced one plus the sample)", got, len(sampled))
	}
	if got := ring.Total(); got != calls/every {
		t.Fatalf("recorded %d send spans, want %d", got, calls/every)
	}
	for i := 0; i < calls; i++ {
		b, err := c.RecvBuf(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	if got := m.RecvLatency.Count(); got != calls {
		t.Fatalf("timed %d of %d receives under an active span handle", got, calls)
	}

	// A burst whose element carries a context is timed too.
	bs := []*wire.Buf{wire.NewBuf(0, msgLen), wire.NewBuf(0, msgLen)}
	bs[1].SetTrace(tracing.NewTraceID(), 0, 0)
	before := m.SendLatency.Count()
	if err := c.SendBufs(ctx, bs); err != nil {
		t.Fatal(err)
	}
	if got := m.SendLatency.Count(); got != before+1 {
		t.Fatalf("a traced burst left the send histogram at %d, want %d", got, before+1)
	}
}

// TestConnHopStatsAfterOneMessage: the first call on every layer is
// timed, so a negotiated connection has a per-layer rollup as soon as it
// has sent one message.
func TestConnHopStatsAfterOneMessage(t *testing.T) {
	regC, regS := core.NewRegistry(), core.NewRegistry()
	regC.MustRegister(newMark("mark/fb", 0x42, 0))
	regS.MustRegister(newMark("mark/fb", 0x42, 0))
	telC := telemetry.New()
	srv, _ := core.NewEndpoint("srv", spec.Seq(spec.New("mark")), core.WithRegistry(regS),
		core.WithTelemetry(telemetry.New()))
	cli, _ := core.NewEndpoint("cli", spec.Seq(spec.New("mark")), core.WithRegistry(regC),
		core.WithTelemetry(telC))
	cconn, sconn := dialAndServe(t, cli, srv)
	echoOnce(t, cconn, sconn, "one")

	hops := core.ConnHopStats(cconn)
	if len(hops) < 2 {
		t.Fatalf("HopStats returned %d layers after one message, want the stack's >= 2", len(hops))
	}
	if in := hops[len(hops)-1]; in.Chunnel != "transport" || in.ExclP95 <= 0 {
		t.Fatalf("innermost hop %+v: want the transport with a latency", in)
	}
	for _, c := range telC.Snapshot().Conns {
		if c.SendLatency.Count == 0 || c.RecvLatency.Count == 0 {
			t.Fatalf("%s/%s timed %d sends / %d recvs after one round trip, want ≥ 1 each",
				c.Chunnel, c.Impl, c.SendLatency.Count, c.RecvLatency.Count)
		}
	}
}

// TestInstrumentAllocs gates the wrapper at 0 allocs on untimed calls,
// on timed ones, and on a traced stream that times and records a span
// on every call.
func TestInstrumentAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	roundTrip := func(c core.Datapath, traced bool) func() {
		return func() {
			b := wire.NewBuf(0, msgLen)
			if traced {
				b.SetTrace(1, 0, 0)
			}
			if err := c.SendBuf(ctx, b); err != nil {
				t.Fatal(err)
			}
			r, err := c.RecvBuf(ctx)
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
	}
	m := telemetry.New().Conn("layer", "impl")
	c := instrument(newScript(), m)
	// AllocsPerRun's warm-up is call 0, the timed one; the 63 measured
	// calls after it are untimed.
	untraced := roundTrip(c, false)
	if avg := testing.AllocsPerRun(63, untraced); avg != 0 {
		t.Fatalf("untimed calls allocate %.2f objects/op", avg)
	}
	if n := m.SendLatency.Count(); n != 1 {
		t.Fatalf("%d timed sends in the untimed run, want the warm-up's 1", n)
	}
	sixtyFour := func() {
		for i := 0; i < 64; i++ {
			untraced()
		}
	}
	if avg := testing.AllocsPerRun(4, sixtyFour); avg != 0 {
		t.Fatalf("64 calls with one timed allocate %.2f objects", avg)
	}
	ring := tracing.NewSpanRing(256)
	tc := core.InstrumentTraced(newScript(), m, ring.Handle("layer", "impl")).(core.Datapath)
	if avg := testing.AllocsPerRun(100, roundTrip(tc, true)); avg != 0 {
		t.Fatalf("traced calls (all timed, spans recorded) allocate %.2f objects/op", avg)
	}
}
