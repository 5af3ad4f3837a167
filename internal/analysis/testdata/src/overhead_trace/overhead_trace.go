// Package overhead_trace is the overhead analyzer's corpus for the
// trace pseudo-chunnel's wire format: a context-stamping layer whose
// send path prepends either the full 16-byte sampled context or the
// 1-byte unsampled marker. The declared SendOverhead must cover the
// worst case (16); a declaration copied from the marker path — the
// mistake this corpus pins — under-reports by 15 bytes and negotiation
// would assemble stacks with too little headroom.
package overhead_trace

import (
	"context"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

const (
	contextSize = 16
	markerSize  = 1
)

// info under-declares: 8 bytes, below the sampled path's worst case.
func info() core.ImplInfo {
	return core.ImplInfo{
		Name:         "trace/underdeclared",
		Type:         "trace",
		SendOverhead: 8,
	}
}

// stamper mirrors the real traced chunnel's send path, a core.Transform
// whose Encode prepends the full context for sampled buffers and the
// marker for the rest. Its own Overhead() is honest; the worst case is
// 16 bytes — over the declared 8.
type stamper struct{}

func (stamper) Overhead() int { return contextSize }

func (stamper) Encode(b *wire.Buf) error { // want `exceeds`
	if _, _, _, ok := b.Trace(); ok {
		b.Prepend(contextSize)
	} else {
		b.Prepend(markerSize)[0] = 0xB0
	}
	return nil
}

func (stamper) Decode(b *wire.Buf) (bool, error) { return true, nil }

// markerOnlyConn never stamps the full context; its 1-byte worst case
// fits the declaration and the path stays clean.
type markerOnlyConn struct{ next core.BufConn }

func (c *markerOnlyConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	b.Prepend(markerSize)[0] = 0xB0
	return c.next.SendBuf(ctx, b)
}

// batchStampConn stamps every element of a burst with the sampled
// context: the per-element worst case — not the burst sum — is what
// counts, and 16 still exceeds the declared 8.
type batchStampConn struct{ next core.BufConn }

func (c *batchStampConn) SendBufs(ctx context.Context, bs []*wire.Buf) error { // want `exceeds`
	for _, b := range bs {
		b.Prepend(contextSize)
	}
	return nil
}
