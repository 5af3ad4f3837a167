package core_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// checksum is a complete header chunnel: a CRC-32 in front of every
// message, checked and stripped on the way up. (README, "Writing a
// chunnel", is this file.)
type checksum struct{}

func (checksum) Overhead() int { return 4 }

func (checksum) Encode(b *wire.Buf) error {
	sum := crc32.ChecksumIEEE(b.Bytes())
	binary.BigEndian.PutUint32(b.Prepend(4), sum)
	return nil
}

func (checksum) Decode(b *wire.Buf) (bool, error) {
	if b.Len() < 4 {
		return false, errors.New("checksum: short message")
	}
	want := binary.BigEndian.Uint32(b.Bytes())
	b.TrimFront(4)
	if crc32.ChecksumIEEE(b.Bytes()) != want {
		return false, errors.New("checksum: mismatch")
	}
	return true, nil
}

func registerChecksum(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name: "checksum/crc32", Type: "checksum",
			Endpoint: spec.EndpointBoth, Location: core.LocUserspace,
		},
		WrapFn: func(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
			return core.WrapTransform(conn, checksum{}, "chunnel/checksum/decode_dropped"), nil
		},
	})
}

func ExampleWrapTransform() {
	registerChecksum(core.NewRegistry()) // what an application's start-up does

	ctx := context.Background()
	a, b := transport.Pipe(core.Addr{}, core.Addr{}, 4)
	snd := core.WrapTransform(a, checksum{}, "chunnel/checksum/decode_dropped")
	rcv := core.WrapTransform(b, checksum{}, "chunnel/checksum/decode_dropped")
	defer snd.Close()
	defer rcv.Close()

	snd.Send(ctx, []byte("hello"))
	p, err := rcv.Recv(ctx)
	fmt.Printf("%q %v, %d bytes of headroom\n", p, err, snd.Headroom())

	a.Send(ctx, []byte("\x00\x00\x00\x00hello")) // below the chunnel: a wrong sum
	_, err = rcv.Recv(ctx)
	fmt.Println(err)
	// Output:
	// "hello" <nil>, 4 bytes of headroom
	// checksum: mismatch
}
