package mcast

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// TestGroupFrame: the client's header transform puts a zeroed frame
// header in front of an operation, strips the client id off a switch
// variant's reply, and rejects — counted — a reply too short for one:
// the error of a single receive, a drop inside a burst
// (core.TestTransformContract holds the connection built from it to the
// rest of the contract).
func TestGroupFrame(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seq, cli := transport.Pipe(core.Addr{}, core.Addr{}, 8)
	c := core.WrapTransform(cli, groupFrame{stripCID: true}, DecodeDroppedCounter)
	defer c.Close()
	defer seq.Close()
	if c.Headroom() != frameHeader {
		t.Fatalf("Headroom() = %d, want the %d-byte frame header", c.Headroom(), frameHeader)
	}

	dirty := wire.NewBufFrom(frameHeader, []byte("op"))
	copy(dirty.Prepend(frameHeader), bytes.Repeat([]byte{0xff}, frameHeader))
	dirty.TrimFront(frameHeader) // the headroom now holds junk
	if err := c.SendBuf(ctx, dirty); err != nil {
		t.Fatal(err)
	}
	got, err := seq.Recv(ctx)
	if want := append(make([]byte, frameHeader), "op"...); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("on the wire: %x (%v), want %x", got, err, want)
	}

	dropped := telemetry.Default().Counter(DecodeDroppedCounter)
	d0 := dropped.Value()
	seq.Send(ctx, []byte("short"))
	if _, err := c.Recv(ctx); err == nil {
		t.Fatal("a reply shorter than its client id was delivered")
	}
	seq.Send(ctx, []byte("short"))
	seq.Send(ctx, []byte("12345678reply"))
	into := make([]*wire.Buf, 4)
	n, err := c.RecvBufs(ctx, into)
	if err != nil || n != 1 || string(into[0].Bytes()) != "reply" {
		t.Fatalf("burst behind a short reply = (%d, %v)", n, err)
	}
	core.ReleaseAll(into[:n])
	if d := dropped.Value() - d0; d != 2 {
		t.Fatalf("%s moved by %d over two short replies", DecodeDroppedCounter, d)
	}
}
