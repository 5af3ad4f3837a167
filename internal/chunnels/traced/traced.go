// Package traced implements the trace pseudo-chunnel: the layer that
// carries a distributed-tracing context across the wire. It is never
// declared in an application spec — negotiation appends it as the
// innermost chunnel when the server endpoint enables tracing
// (core.WithTracing) and both peers register it — so its header lands
// directly after the mux tag byte, where simnet switches peek at it.
//
// On the send path it serializes the wire.Buf's trace context (stamped
// by the endpoint's sampler at the top of the stack) into 16 bytes of
// headroom; unsampled messages pay a single marker byte. On the receive
// path it parses the context back onto the Buf before any layer above
// runs, so the instrumented wrapper over each layer — this one included
// — records that layer's receive span.
package traced

import (
	"context"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name ("trace").
const Type = core.TraceChunnelType

// Node builds the DAG node. Applications normally never use it — the
// chunnel rides negotiation — but manual stacks (benchmarks) can.
func Node() spec.Node { return spec.New(Type) }

// Register installs the in-band context-stamping implementation.
func Register(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     core.TraceImplName,
			Type:     Type,
			Endpoint: spec.EndpointBoth,
			Location: core.LocUserspace,
		},
		WrapFn: func(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
			return New(conn), nil
		},
	})
}

// DecodeDroppedCounter is the layer's rejected-message counter. It stays
// at zero: a message without a context is passed up untouched, never
// rejected.
const DecodeDroppedCounter = "chunnel/trace/decode_dropped"

// New wraps conn with trace-context stamping. Exported for manual
// stacks; negotiated stacks get it via Register. Receive spans are
// recorded by the core.InstrumentTraced wrapper over this layer, from
// the context parsed here.
func New(conn core.Conn) core.Conn {
	return core.WrapTransform(conn, stamper{}, DecodeDroppedCounter)
}

// stamper is the chunnel's datapath.
type stamper struct{}

// Overhead is the sampled context size — the worst case — so callers
// allocating against the stack's headroom never force a reallocating
// Prepend.
func (stamper) Overhead() int { return tracing.ContextSize }

// Encode serializes b's trace context into headroom: the full 16-byte
// context when sampled, the 1-byte marker otherwise (a message that
// entered the stack as plain []byte carries none).
func (stamper) Encode(b *wire.Buf) error {
	if id, span, hop, ok := b.Trace(); ok {
		tracing.EncodeContext(b.Prepend(tracing.ContextSize), id, span, hop)
	} else {
		b.Prepend(tracing.MarkerSize)[0] = tracing.FlagUnsampled
	}
	return nil
}

// Decode consumes b's leading context, restoring the trace fields onto
// the Buf for the layers above.
func (stamper) Decode(b *wire.Buf) (bool, error) {
	n, id, span, hop, sampled, valid := tracing.ParseContext(b.Bytes())
	if !valid {
		// The peer did not run the trace chunnel (or the message is
		// corrupt); leave the payload untouched for the layers above.
		return true, nil
	}
	b.TrimFront(n)
	if sampled {
		b.SetTrace(id, span, hop)
	}
	return true, nil
}
