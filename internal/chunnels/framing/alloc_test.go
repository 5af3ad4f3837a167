package framing

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// loopConn is a loopback BufConn: SendBuf hands buffers straight to
// RecvBuf with zero copies or allocations.
type loopConn struct {
	ch chan *wire.Buf
}

func newLoopConn(depth int) *loopConn { return &loopConn{ch: make(chan *wire.Buf, depth)} }

func (c *loopConn) Send(ctx context.Context, p []byte) error {
	return c.SendBuf(ctx, wire.NewBufFrom(0, p))
}

func (c *loopConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	c.ch <- b
	return nil
}

func (c *loopConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

func (c *loopConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	return <-c.ch, nil
}

func (c *loopConn) Headroom() int         { return 0 }
func (c *loopConn) LocalAddr() core.Addr  { return core.Addr{} }
func (c *loopConn) RemoteAddr() core.Addr { return core.Addr{} }
func (c *loopConn) Close() error          { return nil }

// TestSingleFrameAllocs pins the zero-copy single-frame path: header
// prepend on send, header trim on receive, no allocations once the pool
// is warm.
func TestSingleFrameAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	conn, err := New(newLoopConn(1), DefaultMaxFrame)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	bc := conn.(core.BufConn)
	ctx := context.Background()
	payload := make([]byte, 64)
	headroom := core.HeadroomOf(conn)

	avg := testing.AllocsPerRun(200, func() {
		b := wire.NewBufFrom(headroom, payload)
		if err := bc.SendBuf(ctx, b); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		r, err := bc.RecvBuf(ctx)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if r.Len() != len(payload) {
			t.Errorf("len = %d, want %d", r.Len(), len(payload))
		}
		r.Release()
	})
	if avg >= 1 {
		t.Fatalf("framing single-frame round trip allocates %.2f objects/op, want 0", avg)
	}
}

// TestFragmentedRoundTripAllocs pins the fragmented path: a 16 KiB
// message split into 1200-byte frames goes down as one burst and comes
// back up through one single receive plus burst receives, and in steady
// state neither direction allocates — the send burst, the receive
// scratch and the reassembly buffer are all reused.
func TestFragmentedRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	pipeA, pipeB := transport.Pipe(core.Addr{}, core.Addr{}, 64)
	udpA, udpB, err := transport.UDPPair("a", "b")
	if err != nil {
		t.Fatalf("udp pair: %v", err)
	}
	for _, tc := range []struct {
		name string
		a, b core.Conn
	}{{"pipe", pipeA, pipeB}, {"udp", udpA, udpB}} {
		t.Run(tc.name, func(t *testing.T) {
			const frame = 1200
			a, err := New(tc.a, frame)
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			b, err := New(tc.b, frame)
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			defer a.Close()
			defer b.Close()
			ctx := context.Background()
			payload := bytes.Repeat([]byte{0xA5}, 16<<10)
			headroom := core.HeadroomOf(a)
			avg := testing.AllocsPerRun(200, func() {
				if err := core.SendBuf(ctx, a, wire.NewBufFrom(headroom, payload)); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				r, err := core.RecvBuf(ctx, b)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				if !bytes.Equal(r.Bytes(), payload) {
					t.Errorf("reassembled %d bytes, want %d (content mismatch)", r.Len(), len(payload))
				}
				r.Release()
			})
			if avg >= 1 {
				t.Fatalf("16 KiB fragmented round trip over %s allocates %.2f objects/op, want 0", tc.name, avg)
			}
		})
	}
}

// TestFragmentReassembly round-trips a message larger than maxFrame.
func TestFragmentReassembly(t *testing.T) {
	const maxFrame = 128
	conn, err := New(newLoopConn(64), maxFrame)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	ctx := context.Background()
	msg := bytes.Repeat([]byte("fragmented-payload!"), 40) // ~760 bytes, 6 frames
	if err := conn.Send(ctx, msg); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := conn.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("reassembled %d bytes, want %d (content mismatch)", len(got), len(msg))
	}
}

// TestDroppedStreamsCounter injects an out-of-order CONTINUATION frame
// and checks the discard is visible on the telemetry registry's
// dropped-streams counter, and that the connection keeps delivering
// later messages.
func TestDroppedStreamsCounter(t *testing.T) {
	inner := newLoopConn(8)
	conn, err := New(inner, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	ctx := context.Background()

	// A CONTINUATION (idx 1) for a stream with no DATA frame received:
	// reassembly is impossible, the stream must be dropped and counted.
	dropped := telemetry.Default().Counter(DroppedStreamsCounter)
	before := dropped.Value()
	rogue := make([]byte, headerLen+4)
	rogue[0] = frameContinuation
	rogue[1] = flagEndStream
	binary.LittleEndian.PutUint32(rogue[2:6], 7777)
	binary.LittleEndian.PutUint16(rogue[6:8], 1)
	if err := inner.Send(ctx, rogue); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if err := conn.Send(ctx, []byte("after-drop")); err != nil {
		t.Fatalf("send: %v", err)
	}

	got, err := conn.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(got) != "after-drop" {
		t.Fatalf("recv = %q, want %q", got, "after-drop")
	}
	if n := dropped.Value(); n != before+1 {
		t.Fatalf("dropped_streams counter = %d, want %d", n, before+1)
	}
}

// TestMalformedFramesCounterBatch sends a burst holding one good frame
// and one unknown-type frame through the batch receive path: RecvBufs
// keeps the good message (so it reports no error) and the discarded
// malformed frame must surface on the malformed-frames counter.
func TestMalformedFramesCounterBatch(t *testing.T) {
	a, b := transport.Pipe(core.Addr{}, core.Addr{}, 16)
	conn, err := New(b, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	ctx := context.Background()

	malformed := telemetry.Default().Counter(MalformedFramesCounter)
	before := malformed.Value()

	good := make([]byte, headerLen+2)
	good[0] = frameData
	good[1] = flagEndStream
	binary.LittleEndian.PutUint32(good[2:6], 1)
	copy(good[headerLen:], "ok")
	rogue := make([]byte, headerLen+2)
	rogue[0] = 0x5 // not DATA or CONTINUATION
	burst := []*wire.Buf{wire.NewBufFrom(0, good), wire.NewBufFrom(0, rogue)}
	if err := core.SendBufs(ctx, a, burst); err != nil {
		t.Fatalf("inject burst: %v", err)
	}

	into := make([]*wire.Buf, 4)
	n, err := conn.(core.BatchConn).RecvBufs(ctx, into)
	if err != nil {
		t.Fatalf("RecvBufs: %v (good message must mask the malformed frame's error)", err)
	}
	if n != 1 || string(into[0].Bytes()) != "ok" {
		t.Fatalf("RecvBufs = %d messages (first %q), want 1 %q", n, into[0].Bytes(), "ok")
	}
	into[0].Release()
	if v := malformed.Value(); v != before+1 {
		t.Errorf("malformed_frames counter = %d, want %d", v, before+1)
	}
}
