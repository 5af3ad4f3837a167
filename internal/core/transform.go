package core

import (
	"context"

	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// Transform is the declarative form of a chunnel that only adds and
// strips a header or rewrites the payload in place. The chunnel declares
// the three methods; WrapTransform builds the connection. Both methods
// borrow b: they may Prepend, Extend, Trim and rewrite it, and must
// neither release nor keep it.
type Transform interface {
	// Overhead is the most bytes Encode prepends to a message: the
	// layer's share of the stack's send headroom.
	Overhead() int
	// Encode turns a message into its wire form. An error sends nothing.
	Encode(b *wire.Buf) error
	// Decode turns a received message back. keep delivers b upwards;
	// otherwise the connection releases it: with an error when the
	// message was bad, with nil when the transform consumed it (a control
	// message, say) and the receive should go on to the next one.
	Decode(b *wire.Buf) (keep bool, err error)
}

// TransformConn is the connection built from a Transform. It owns, once,
// what every header chunnel needs around its Encode and Decode: the lift
// between []byte and Buf, the single-message and the burst path, the
// headroom sum, and the error rule — a bad message is the error of a
// single receive, and inside a burst it is dropped, the survivors close
// ranks in order, and the burst fails only when nothing survived. Every
// message Decode rejects is counted.
type TransformConn struct {
	Datapath // the layer below
	t        Transform
	headroom int
	dropped  *telemetry.Counter
}

// WrapTransform layers t over inner. Rejected messages are counted in
// the process registry under droppedCounter (by convention
// "chunnel/<type>/decode_dropped").
func WrapTransform(inner Conn, t Transform, droppedCounter string) *TransformConn {
	below := Resolve(inner)
	return &TransformConn{
		Datapath: below,
		t:        t,
		headroom: t.Overhead() + below.Headroom(),
		dropped:  telemetry.Default().Counter(droppedCounter),
	}
}

// Headroom is the transform's overhead plus the layer below's.
func (c *TransformConn) Headroom() int { return c.headroom }

func (c *TransformConn) Send(ctx context.Context, p []byte) error {
	return c.SendBuf(ctx, wire.NewBufFrom(c.headroom, p))
}

func (c *TransformConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

func (c *TransformConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	if err := c.t.Encode(b); err != nil {
		b.Release()
		return err
	}
	return c.Datapath.SendBuf(ctx, b)
}

func (c *TransformConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	for {
		b, err := c.Datapath.RecvBuf(ctx)
		if err != nil {
			return nil, err
		}
		keep, err := c.t.Decode(b)
		if keep {
			return b, nil
		}
		b.Release()
		if err != nil {
			c.dropped.Inc()
			return nil, err
		}
	}
}

// SendBufs encodes the whole burst before anything is sent, so an Encode
// failure transmits nothing.
func (c *TransformConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	for _, b := range bs {
		if err := c.t.Encode(b); err != nil {
			ReleaseAll(bs)
			return &BatchError{Sent: 0, Err: err}
		}
	}
	return c.Datapath.SendBufs(ctx, bs)
}

func (c *TransformConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	for {
		n, err := c.Datapath.RecvBufs(ctx, into)
		if err != nil {
			return 0, err
		}
		out := 0
		var firstErr error
		for _, b := range into[:n] {
			keep, err := c.t.Decode(b)
			if keep {
				into[out] = b
				out++
				continue
			}
			b.Release()
			if err != nil {
				c.dropped.Inc()
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if out > 0 {
			return out, nil
		}
		if firstErr != nil {
			return 0, firstErr
		}
	}
}
