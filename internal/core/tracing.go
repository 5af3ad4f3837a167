// Distributed-tracing plumbing for negotiated stacks: the WithTracing
// option, the trace pseudo-chunnel's negotiation identity, and the
// sampler that stamps trace contexts onto application sends at the top
// of the assembled stack.
//
// Division of labour: the sampler here decides *whether* a message is
// traced and attaches the context to the wire.Buf (fields ride alongside
// the payload, zero bytes until serialization); the trace chunnel
// (chunnels/traced), negotiated into the stack like any other layer,
// serializes the context into wire headroom at the innermost position so
// it crosses the network and simnet switches can peek at it; and the
// instrumented wrappers in instrument.go record per-layer spans whenever
// a Buf passing through them carries a context.
package core

import (
	"context"

	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/wire"
)

// Negotiation identity of the trace pseudo-chunnel. It is appended to
// the resolved stack by decide() — never declared in an application
// spec — when the server endpoint has tracing enabled and both sides
// registered the implementation.
const (
	// TraceChunnelType is the pseudo-chunnel type of the tracing layer.
	TraceChunnelType = "trace"
	// TraceImplName is the in-band context-stamping implementation.
	TraceImplName = "trace/inline"
)

// TraceConfig parameterizes WithTracing; see tracing.Config.
type TraceConfig = tracing.Config

// WithTracing enables distributed message tracing on connections this
// endpoint establishes: a sampler stamps roughly SampleRate of
// application sends with a 16-byte trace context, the negotiated trace
// chunnel carries it across the wire, and every instrumented layer
// records spans into a per-registry ring of RingSize spans (query via
// /debug/bertha?spans=). On a server endpoint it also authorizes
// negotiation to append the trace chunnel to resolved stacks. The
// unsampled fast path stays zero-allocation (see TestTracingAllocs).
func WithTracing(cfg TraceConfig) Option {
	cfg.Fill()
	return func(e *Endpoint) { e.tracing = &cfg }
}

// stackHasTrace reports whether negotiation put the trace chunnel into
// the resolved stack.
func stackHasTrace(stack []ResolvedNode) bool {
	for _, rn := range stack {
		if rn.Type == TraceChunnelType {
			return true
		}
	}
	return false
}

// samplerConn sits at the very top of an assembled traced stack (above
// the coalescer, below the managedConn, which hands it every send as a
// Buf) and makes the per-send sampling decision. It must be outermost so
// that every instrumented wrapper underneath sees the trace context on
// the way down. Receive-side traffic passes through untouched — contexts
// arrive from the wire.
type samplerConn struct {
	Datapath
	sampler *tracing.Sampler
}

func (c *samplerConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	if c.sampler.Sample() {
		b.SetTrace(tracing.NewTraceID(), 0, 0)
	}
	return c.Datapath.SendBuf(ctx, b)
}

// SendBufs samples the burst as a unit: one decision, stamped on the
// first element, and the per-layer span records carry the element
// count. Stamping every element would multiply ring pressure by the
// burst size without adding attribution signal.
func (c *samplerConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	if len(bs) > 0 && c.sampler.Sample() {
		bs[0].SetTrace(tracing.NewTraceID(), 0, 0)
	}
	return c.Datapath.SendBufs(ctx, bs)
}

func (c *samplerConn) Flush(ctx context.Context) error { return Flush(ctx, c.Datapath) }

// HopStat is one stack layer's exclusive-latency estimate: the layer's
// inclusive send latency minus its inner neighbour's, i.e. the time the
// layer itself costs. This is the per-hop signal a renegotiation policy
// compares against its thresholds.
type HopStat struct {
	Chunnel string  `json:"chunnel"`
	Impl    string  `json:"impl"`
	ExclP50 float64 `json:"excl_p50_us"`
	ExclP95 float64 `json:"excl_p95_us"`
}

// ConnHopStats computes the per-layer exclusive latency rollup for a
// negotiated connection (outermost layer first) and folds it into each
// layer's ConnMetrics EWMA. Returns nil for connections not built by an
// Endpoint.
func ConnHopStats(conn Conn) []HopStat {
	if m, ok := conn.(*managedConn); ok {
		return m.HopStats()
	}
	return nil
}
