package core

import (
	"context"

	"github.com/bertha-net/bertha/internal/wire"
)

// Datapath is the one contract between layers, on one value: a burst of
// wire.Buf plus a headroom figure, with the single-Buf and []byte entry
// points beside it. A layer holds the layer below it as a Datapath,
// resolved once when it wraps, so that on the data path it calls the
// methods directly and a wrapper that only forwards inherits them by
// embedding.
type Datapath interface {
	BufConn
	BatchConn
	HeadroomConn
}

// Resolve answers "does conn speak Buf, burst and headroom" once: conn
// itself when it does, otherwise conn lifted through the fallback
// helpers (SendBuf, RecvBuf, SendBufs, RecvBufs, HeadroomOf), which are
// the one place the degrade-to-per-message semantics live.
func Resolve(conn Conn) Datapath {
	if d, ok := conn.(Datapath); ok {
		return d
	}
	return &lifted{Conn: conn, headroom: HeadroomOf(conn)}
}

// lifted gives a connection that lacks part of the Datapath the rest.
type lifted struct {
	Conn
	headroom int
}

func (l *lifted) SendBuf(ctx context.Context, b *wire.Buf) error {
	return SendBuf(ctx, l.Conn, b)
}

func (l *lifted) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	return RecvBuf(ctx, l.Conn)
}

func (l *lifted) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	return SendBufs(ctx, l.Conn, bs)
}

func (l *lifted) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	return RecvBufs(ctx, l.Conn, into)
}

func (l *lifted) Headroom() int { return l.headroom }
