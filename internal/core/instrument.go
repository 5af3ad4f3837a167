package core

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/wire"
)

// latencySamplePeriod is how often an instrumented layer reads the
// clock: the first call in each direction, then every 64th. Counters and
// burst histograms stay exact; only the latency histograms are a sample.
const latencySamplePeriod = 64

// instrumentedConn records data-plane telemetry for one stack layer: it
// sits immediately above a chunnel (or the base transport) and counts
// sends/recvs/bytes/errors into a ConnMetrics preallocated at assembly
// time, on every call. Inclusive latency is timed on a per-wrapper
// sample (latencySamplePeriod): two clock reads cost more than all the
// counting, and in a stack where every layer sees each message once the
// k-th send is the same message at every layer, so all layers time the
// same messages and HopStats' per-layer subtraction keeps its meaning.
// All recording is atomic adds on preexisting memory — the zero-copy
// path through it stays at 0 allocs/op (see TestStackRoundTripAllocs,
// which runs instrumented).
//
// When the stack is traced, the same wrapper doubles as the span
// recorder: a Buf carrying a trace context (stamped by the sampler on
// the way down, parsed from the wire by the trace chunnel on the way
// up) gets one span per layer crossing recorded through the span
// handle, so such a Buf is always timed, and a wrapper with an active
// handle times every receive. Untraced Bufs cost one branch.
type instrumentedConn struct {
	Datapath
	m    *telemetry.ConnMetrics
	span tracing.Handle
	// sends and recvs count this wrapper's calls per direction for the
	// latency sample. They live here, one per connection per layer, and
	// never on the shared ConnMetrics.
	sends, recvs callSampler
}

// callSampler picks the timed calls of one direction: the first, then
// every latencySamplePeriod-th, one atomic add on a per-connection word.
type callSampler struct{ n atomic.Uint64 }

// start counts one call and returns its start time when it is timed —
// sampled, or forced by tracing.
func (s *callSampler) start(force bool) (time.Time, bool) {
	if (s.n.Add(1)-1)%latencySamplePeriod != 0 && !force {
		return time.Time{}, false
	}
	return time.Now(), true
}

// Instrument wraps conn so every send and receive is recorded into m.
// The wrapper preserves the zero-copy BufConn path and headroom
// reporting of the connection below it. A nil m returns conn unwrapped.
func Instrument(conn Conn, m *telemetry.ConnMetrics) Conn {
	return InstrumentTraced(conn, m, tracing.Handle{})
}

// InstrumentTraced is Instrument plus distributed-tracing span
// recording: sampled messages crossing this layer record spans through
// h. An inactive h degrades to plain Instrument.
func InstrumentTraced(conn Conn, m *telemetry.ConnMetrics, h tracing.Handle) Conn {
	if m == nil {
		return conn
	}
	return &instrumentedConn{Datapath: Resolve(conn), m: m, span: h}
}

func (c *instrumentedConn) Send(ctx context.Context, p []byte) error {
	n := len(p)
	t0, timed := c.sends.start(false)
	err := c.Datapath.Send(ctx, p)
	if !timed {
		c.m.CountSend(n, err)
		return err
	}
	c.m.RecordSend(n, time.Since(t0), err)
	return err
}

// SendBuf forwards the zero-copy path; b's length and trace context are
// read before ownership transfers down the stack.
func (c *instrumentedConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	n := b.Len()
	id, _, hop, traced := b.Trace()
	t0, timed := c.sends.start(traced)
	err := c.Datapath.SendBuf(ctx, b)
	if !timed {
		c.m.CountSend(n, err)
		return err
	}
	d := time.Since(t0)
	c.m.RecordSend(n, d, err)
	if traced && c.span.Active() {
		c.span.Record(tracing.KindSend, id, t0, d, n, 1, hop, err != nil)
	}
	return err
}

func (c *instrumentedConn) Recv(ctx context.Context) ([]byte, error) {
	t0, timed := c.recvs.start(c.span.Active())
	p, err := c.Datapath.Recv(ctx)
	if !timed {
		c.m.CountRecv(len(p), err)
		return p, err
	}
	c.m.RecordRecv(len(p), time.Since(t0), err)
	return p, err
}

// RecvBuf forwards the zero-copy path; the returned buffer's ownership
// passes untouched to the caller. A buffer whose trace context was
// parsed by a layer below records this layer's receive span; recv span
// durations include time blocked waiting for the message.
func (c *instrumentedConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	t0, timed := c.recvs.start(c.span.Active())
	b, err := c.Datapath.RecvBuf(ctx)
	n := 0
	if err == nil {
		n = b.Len()
	}
	if !timed {
		c.m.CountRecv(n, err)
		return b, err
	}
	d := time.Since(t0)
	c.m.RecordRecv(n, d, err)
	if err == nil && c.span.Active() {
		if id, _, hop, ok := b.Trace(); ok {
			c.span.Record(tracing.KindRecv, id, t0, d, n, 1, hop, false)
		}
	}
	return b, err
}

// SendBufs forwards the vectored path, recording the realized burst
// size into the layer's batch histogram; the burst is one call for the
// latency sample. Payload bytes are summed before ownership transfers
// down the stack. A partial burst (the callee aborted after sending a
// prefix) records the transmitted count.
func (c *instrumentedConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	bytes, tid, thop, traced := burstTrace(bs)
	t0, timed := c.sends.start(traced)
	err := c.Datapath.SendBufs(ctx, bs)
	sent := len(bs)
	if err != nil {
		sent = BatchSent(err)
	}
	if !timed {
		c.m.CountSendBatch(sent, bytes, err)
		return err
	}
	d := time.Since(t0)
	c.m.RecordSendBatch(sent, bytes, d, err)
	// A sampled burst records one span carrying the element count —
	// attribution treats the vectored call as a unit.
	if traced && c.span.Active() {
		c.span.Record(tracing.KindSend, tid, t0, d, bytes, len(bs), thop, err != nil)
	}
	return err
}

// RecvBufs forwards the vectored path, recording the realized burst
// size; ownership of the filled buffers passes untouched to the caller.
func (c *instrumentedConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	t0, timed := c.recvs.start(c.span.Active())
	n, err := c.Datapath.RecvBufs(ctx, into)
	bytes, tid, thop, traced := burstTrace(into[:n])
	if !timed {
		c.m.CountRecvBatch(n, bytes, err)
		return n, err
	}
	d := time.Since(t0)
	c.m.RecordRecvBatch(n, bytes, d, err)
	if traced && c.span.Active() {
		c.span.Record(tracing.KindRecv, tid, t0, d, bytes, n, thop, false)
	}
	return n, err
}

// burstTrace sums a burst's payload bytes and returns the trace context
// of its first sampled element, if any.
func burstTrace(bs []*wire.Buf) (bytes int, id uint64, hop uint8, traced bool) {
	for _, b := range bs {
		bytes += b.Len()
		if !traced {
			id, _, hop, traced = b.Trace()
		}
	}
	return bytes, id, hop, traced
}
