// Package compress implements the compression chunnel (DEFLATE per
// message). It is an extra composable stage used by the optimizer
// ablations: it is idempotent metadata-wise (compressing twice wastes
// cycles for no benefit, so the optimizer eliminates adjacent
// duplicates) and commutes with nothing by default (compressing after
// encryption is useless, and the metadata encodes that by omission).
package compress

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name.
const Type = "compress"

// Node builds the DAG node: compress(level). Level follows
// compress/flate (1 fastest … 9 best, -1 default).
func Node(level int) spec.Node {
	return spec.New(Type, wire.Int(int64(level)))
}

// Register installs the userspace fallback implementation and optimizer
// metadata.
func Register(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     Type + "/flate",
			Type:     Type,
			Endpoint: spec.EndpointBoth,
			Location: core.LocUserspace,
		},
		WrapFn: func(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
			level := int(base.IntOr(args, 0, int64(flate.DefaultCompression)))
			return New(conn, level)
		},
	})
	reg.SetTypeMeta(Type, core.TypeMeta{Idempotent: true})
}

// New wraps conn with per-message DEFLATE compression.
func New(conn core.Conn, level int) (core.Conn, error) {
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("compress: invalid level %d", level)
	}
	return &compConn{Conn: conn, level: level}, nil
}

type compConn struct {
	core.Conn
	level int
	mu    sync.Mutex
	buf   bytes.Buffer
	w     *flate.Writer
}

func (c *compConn) Send(ctx context.Context, p []byte) error {
	if len(p) > core.MaxMessage {
		return fmt.Errorf("compress: %d bytes: %w", len(p), core.ErrMessageTooLarge)
	}
	c.mu.Lock()
	c.buf.Reset()
	if c.w == nil {
		w, err := flate.NewWriter(&c.buf, c.level)
		if err != nil {
			c.mu.Unlock()
			return fmt.Errorf("compress: %w", err)
		}
		c.w = w
	} else {
		c.w.Reset(&c.buf)
	}
	if _, err := c.w.Write(p); err != nil {
		c.mu.Unlock()
		return fmt.Errorf("compress: %w", err)
	}
	if err := c.w.Close(); err != nil {
		c.mu.Unlock()
		return fmt.Errorf("compress: %w", err)
	}
	// The compressed bytes move to a pooled buffer with headroom for the
	// layers below, then travel zero-copy from here down.
	out := wire.NewBufFrom(core.HeadroomOf(c.Conn), c.buf.Bytes())
	c.mu.Unlock()
	return core.SendBuf(ctx, c.Conn, out)
}

// Headroom: compression re-buffers the message, so upstream headroom
// cannot reach the layers below; reserving it would be waste. A Buf
// handed to this layer takes the core fallback (Send its bytes, release
// it): compression is a copy boundary, not a prepend.
func (c *compConn) Headroom() int { return 0 }

// ErrInflatedTooLarge fails a receive whose datagram inflates past
// core.MaxMessage: network bytes may not size an allocation without a
// bound (60 KB of deflated zeros is ~60 MB).
var ErrInflatedTooLarge = errors.New("compress: inflated message exceeds the message size limit")

func (c *compConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := core.RecvBuf(ctx, c.Conn)
	if err != nil {
		return nil, err
	}
	r := flate.NewReader(bytes.NewReader(b.Bytes()))
	out, err := io.ReadAll(io.LimitReader(r, core.MaxMessage+1))
	r.Close()
	b.Release()
	if err != nil {
		return nil, fmt.Errorf("compress: inflate: %w", err)
	}
	if len(out) > core.MaxMessage {
		return nil, ErrInflatedTooLarge
	}
	return out, nil
}
