// Package serialize implements the serialization chunnel (§3.2
// "Serialization"): with it in the DAG, applications send and receive
// typed objects rather than bytes. The wire format is the repo's compact
// binary codec (the bincode analog); the chunnel's negotiated argument
// names the format so both endpoints agree, and new formats (including
// hardware-accelerated ones) can be adopted by registering a new
// implementation — without touching application code.
package serialize

import (
	"context"
	"fmt"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name.
const Type = "serialize"

// FormatBincode is the built-in compact binary format.
const FormatBincode = "bincode"

// Node builds the DAG node: serialize(format).
func Node(format string) spec.Node {
	return spec.New(Type, wire.Str(format))
}

// formatTag maps format names to the wire tag prepended to each message,
// letting the receiver detect a format mismatch immediately.
var formatTag = map[string]byte{
	FormatBincode: 0x01,
}

// Register installs the userspace fallback implementation.
func Register(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     Type + "/" + FormatBincode,
			Type:     Type,
			Endpoint: spec.EndpointBoth,
			Location: core.LocUserspace,
		},
		WrapFn: func(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
			format, err := base.Str(Type, args, 0)
			if err != nil {
				format = FormatBincode
			}
			return New(conn, format)
		},
	})
}

// DecodeDroppedCounter counts received messages whose format tag did not
// match, in the process telemetry registry.
const DecodeDroppedCounter = "chunnel/serialize/decode_dropped"

// New wraps conn with the named format's message tagging.
func New(conn core.Conn, format string) (core.Conn, error) {
	tag, ok := formatTag[format]
	if !ok {
		return nil, fmt.Errorf("serialize: unknown format %q", format)
	}
	return core.WrapTransform(conn, formatTagger(tag), DecodeDroppedCounter), nil
}

// formatTagger is the chunnel's datapath: one format tag byte in front
// of every message.
type formatTagger byte

func (formatTagger) Overhead() int { return 1 }

func (t formatTagger) Encode(b *wire.Buf) error {
	b.Prepend(1)[0] = byte(t)
	return nil
}

func (t formatTagger) Decode(b *wire.Buf) (bool, error) {
	if b.Len() == 0 {
		return false, fmt.Errorf("serialize: format mismatch (empty message)")
	}
	if got := b.Bytes()[0]; got != byte(t) {
		return false, fmt.Errorf("serialize: format mismatch (tag %#x)", got)
	}
	b.TrimFront(1)
	return true, nil
}

// Codec marshals values of T to and from the binary wire format.
type Codec[T any] interface {
	Marshal(e *wire.Encoder, v T) error
	Unmarshal(d *wire.Decoder) (T, error)
}

// ObjConn is the typed view of a connection whose stack includes the
// serialization chunnel: "applications send and receive objects rather
// than bytes" (§3.2).
type ObjConn[T any] struct {
	conn  core.Conn
	codec Codec[T]
}

// Objects wraps a negotiated connection with a typed codec.
func Objects[T any](conn core.Conn, codec Codec[T]) *ObjConn[T] {
	return &ObjConn[T]{conn: conn, codec: codec}
}

// Send marshals and transmits one object. The encoded bytes are copied
// once into a pooled buffer with stack headroom; every layer below
// prepends in place.
func (o *ObjConn[T]) Send(ctx context.Context, v T) error {
	e := wire.NewEncoder(nil)
	if err := o.codec.Marshal(e, v); err != nil {
		return fmt.Errorf("serialize: marshal: %w", err)
	}
	return core.SendBuf(ctx, o.conn, wire.NewBufFrom(core.HeadroomOf(o.conn), e.Bytes()))
}

// Recv receives and unmarshals one object.
func (o *ObjConn[T]) Recv(ctx context.Context) (T, error) {
	var zero T
	p, err := o.conn.Recv(ctx)
	if err != nil {
		return zero, err
	}
	d := wire.NewDecoder(p)
	v, err := o.codec.Unmarshal(d)
	if err != nil {
		return zero, fmt.Errorf("serialize: unmarshal: %w", err)
	}
	if err := d.Finish(); err != nil {
		return zero, fmt.Errorf("serialize: unmarshal: %w", err)
	}
	return v, nil
}

// Conn exposes the underlying byte connection (e.g. for Close).
func (o *ObjConn[T]) Conn() core.Conn { return o.conn }

// Close closes the underlying connection.
func (o *ObjConn[T]) Close() error { return o.conn.Close() }

// StringCodec marshals plain strings.
type StringCodec struct{}

// Marshal implements Codec.
func (StringCodec) Marshal(e *wire.Encoder, v string) error {
	e.PutString(v)
	return nil
}

// Unmarshal implements Codec.
func (StringCodec) Unmarshal(d *wire.Decoder) (string, error) {
	s := d.String()
	return s, d.Err()
}

// BytesCodec marshals raw byte slices.
type BytesCodec struct{}

// Marshal implements Codec.
func (BytesCodec) Marshal(e *wire.Encoder, v []byte) error {
	e.PutBytes(v)
	return nil
}

// Unmarshal implements Codec.
func (BytesCodec) Unmarshal(d *wire.Decoder) ([]byte, error) {
	b := d.BytesCopy()
	return b, d.Err()
}

// ValueCodec marshals wire.Value trees.
type ValueCodec struct{}

// Marshal implements Codec.
func (ValueCodec) Marshal(e *wire.Encoder, v wire.Value) error {
	v.Encode(e)
	return nil
}

// Unmarshal implements Codec.
func (ValueCodec) Unmarshal(d *wire.Decoder) (wire.Value, error) {
	v := wire.DecodeValue(d)
	return v, d.Err()
}
