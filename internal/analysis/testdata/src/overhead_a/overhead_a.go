// Package overhead_a is the golden corpus for the overhead analyzer.
// The package registers one ImplInfo declaring SendOverhead 4; every
// SendBuf send path is checked against that bound.
package overhead_a

import (
	"context"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

const headerLen = 4

func info() core.ImplInfo {
	return core.ImplInfo{
		Name:         "overhead_a/test",
		Type:         "overhead_a",
		SendOverhead: headerLen,
	}
}

// okConn prepends exactly the declared bound: clean.
type okConn struct{ next core.BufConn }

func (c *okConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	hdr := b.Prepend(headerLen)
	hdr[0] = 1
	return c.next.SendBuf(ctx, b)
}

// overConn prepends a two-part header totalling 9 bytes worst-case —
// more than the declared 4.
type overConn struct{ next core.BufConn }

func (c *overConn) SendBuf(ctx context.Context, b *wire.Buf) error { // want `exceeds`
	b.Prepend(8)
	if b.Len() > 1024 {
		b.Prepend(1)
	}
	return c.next.SendBuf(ctx, b)
}

// loopConn prepends inside a loop: no static bound exists.
type loopConn struct{ next core.BufConn }

func (c *loopConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	for i := 0; i < 3; i++ {
		b.Prepend(1) // want `unbounded`
	}
	return c.next.SendBuf(ctx, b)
}

// varConn prepends a runtime-computed size with no annotation.
type varConn struct {
	next core.BufConn
	n    int
}

func (c *varConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	b.Prepend(c.n) // want `nonconst`
	return c.next.SendBuf(ctx, b)
}

// annotatedConn bounds its runtime-computed prepend with an annotation,
// and the bound fits the declaration: clean.
type annotatedConn struct {
	next core.BufConn
	n    int
}

func (c *annotatedConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	b.Prepend(c.n) //bertha:overhead 4
	return c.next.SendBuf(ctx, b)
}

// helperConn forwards the Buf to a same-package helper whose prepend
// counts toward the caller's total.
type helperConn struct{ next core.BufConn }

func (c *helperConn) SendBuf(ctx context.Context, b *wire.Buf) error { // want `exceeds`
	stamp(b)
	b.Prepend(2)
	return c.next.SendBuf(ctx, b)
}

func stamp(b *wire.Buf) {
	hdr := b.Prepend(4)
	hdr[0] = 0xbe
}

// batchOkConn stamps each element of the burst with exactly the
// declared bound: per-element Prepends in a range over the burst are
// bounded, not "unbounded", and the path stays clean.
type batchOkConn struct{ next core.BufConn }

func (c *batchOkConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	for _, b := range bs {
		hdr := b.Prepend(headerLen)
		hdr[0] = 1
	}
	return nil
}

// batchOverConn stacks two per-element headers totalling 6 bytes —
// more than the declared 4 — across two passes over the same burst.
type batchOverConn struct{ next core.BufConn }

func (c *batchOverConn) SendBufs(ctx context.Context, bs []*wire.Buf) error { // want `exceeds`
	for _, b := range bs {
		b.Prepend(4)
	}
	for _, b := range bs {
		b.Prepend(2)
	}
	return nil
}

// batchVarConn prepends a runtime-computed size per element with no
// annotation: same nonconst rule as the single-message path.
type batchVarConn struct {
	next core.BufConn
	n    int
}

func (c *batchVarConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	for _, b := range bs {
		b.Prepend(c.n) // want `nonconst`
	}
	return nil
}

// okTransform is a chunnel in the declarative form (core.Transform): it
// has no SendBuf, so Encode is its send path. It prepends exactly what
// its Overhead() and the ImplInfo declare: clean.
type okTransform struct{}

func (okTransform) Overhead() int { return headerLen }

func (okTransform) Encode(b *wire.Buf) error {
	b.Prepend(headerLen)[0] = 1
	return nil
}

func (okTransform) Decode(b *wire.Buf) (bool, error) {
	b.TrimFront(headerLen)
	return true, nil
}

// shyTransform prepends more than its own Overhead() returns: the
// connection built from it reserves too little headroom, even though
// the ImplInfo bound still holds.
type shyTransform struct{}

func (*shyTransform) Overhead() int { return 2 }

func (*shyTransform) Encode(b *wire.Buf) error { // want `Overhead\(\) returns 2`
	b.Prepend(headerLen)
	return nil
}

func (*shyTransform) Decode(b *wire.Buf) (bool, error) { return true, nil }

// bigTransform is consistent with itself but not with the registered
// ImplInfo: negotiation reserves 4 bytes for a layer that prepends 8.
type bigTransform struct{}

func (bigTransform) Overhead() int { return 8 }

func (bigTransform) Encode(b *wire.Buf) error { // want `declares SendOverhead 4`
	stamp(b)
	stamp(b)
	return nil
}

func (bigTransform) Decode(b *wire.Buf) (bool, error) { return true, nil }

// encoderOnly has an Encode over a Buf but is not a transform (no
// Overhead, no Decode): it is some other codec, not a send path.
type encoderOnly struct{}

func (encoderOnly) Encode(b *wire.Buf) error {
	b.Prepend(64)
	return nil
}

// lhsTransform stamps its header through an index on the Prepend result,
// so the call sits on the left of the assignment: it counts all the same.
type lhsTransform struct{}

func (lhsTransform) Overhead() int { return 1 }

func (lhsTransform) Encode(b *wire.Buf) error { // want `Overhead\(\) returns 1`
	b.Prepend(2)[0] = 0xb0
	return nil
}

func (lhsTransform) Decode(b *wire.Buf) (bool, error) { return true, nil }
