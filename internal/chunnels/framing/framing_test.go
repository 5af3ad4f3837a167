package framing

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// frame builds one wire frame by hand: fragment idx of stream id,
// flagged END when end is set.
func frame(id uint32, idx int, end bool, payload []byte) *wire.Buf {
	b := wire.NewBufFrom(headerLen, payload)
	frags := idx + 2
	if end {
		frags = idx + 1
	}
	fillHeader(b.Prepend(headerLen), id, idx, frags)
	return b
}

// pipePair returns a raw pipe end to inject frames into and the framing
// connection reading them.
func pipePair(t *testing.T, maxFrame int) (raw core.Conn, fc *frameConn) {
	t.Helper()
	a, b := transport.Pipe(core.Addr{}, core.Addr{}, 256)
	conn, err := New(b, maxFrame)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	return a, conn.(*frameConn)
}

func inject(t *testing.T, raw core.Conn, frames ...*wire.Buf) {
	t.Helper()
	if err := core.SendBufs(context.Background(), raw, frames); err != nil {
		t.Fatalf("inject: %v", err)
	}
}

func recvString(t *testing.T, c core.Conn) string {
	t.Helper()
	b, err := core.RecvBuf(context.Background(), c)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	defer b.Release()
	return string(b.Bytes())
}

// TestBurstDeliversMessagesInOrder queues the frames of several messages
// before the receiver runs, so one burst receive completes more than one
// message: the first is returned, the rest wait in the ready queue and
// come out in order through RecvBuf and RecvBufs alike.
func TestBurstDeliversMessagesInOrder(t *testing.T) {
	raw, fc := pipePair(t, 4)
	defer fc.Close()
	inject(t, raw,
		frame(1, 0, false, []byte("aaaa")), frame(1, 1, false, []byte("AAAA")), frame(1, 2, true, []byte("a")),
		frame(2, 0, false, []byte("bbbb")), frame(2, 1, true, []byte("B")),
		frame(3, 0, true, []byte("c")),
		frame(4, 0, false, []byte("dddd")), frame(4, 1, true, []byte("D")),
	)
	if got := recvString(t, fc); got != "aaaaAAAAa" {
		t.Fatalf("first message = %q, want %q", got, "aaaaAAAAa")
	}
	if n := fc.nready.Load(); n != 3 {
		t.Fatalf("ready queue holds %d messages after the burst, want 3", n)
	}
	if got := recvString(t, fc); got != "bbbbB" {
		t.Fatalf("second message = %q, want %q", got, "bbbbB")
	}
	into := make([]*wire.Buf, 4)
	n, err := fc.RecvBufs(context.Background(), into)
	if err != nil || n != 2 {
		t.Fatalf("RecvBufs = %d, %v; want the 2 queued messages", n, err)
	}
	if got := string(into[0].Bytes()) + "|" + string(into[1].Bytes()); got != "c|ddddD" {
		t.Fatalf("queued messages = %q, want %q", got, "c|ddddD")
	}
	core.ReleaseAll(into[:n])
}

// TestBurstReorderDropsOnlyThatStream reorders one stream's fragments
// inside a burst that also carries a complete second stream: the second
// message arrives intact, nothing of the first is ever delivered, and no
// reassembly state is left behind.
func TestBurstReorderDropsOnlyThatStream(t *testing.T) {
	raw, fc := pipePair(t, 4)
	defer fc.Close()
	dropped := telemetry.Default().Counter(DroppedStreamsCounter)
	before := dropped.Value()
	inject(t, raw,
		frame(1, 0, false, []byte("1111")),
		frame(2, 0, false, []byte("2222")),
		frame(1, 2, true, []byte("x")), // fragment 1 of stream 1 overtaken
		frame(2, 1, true, []byte("2")),
		frame(1, 1, false, []byte("late")),
		frame(5, 0, true, []byte("next")),
	)
	if got := recvString(t, fc); got != "22222" {
		t.Fatalf("message = %q, want stream 2's %q", got, "22222")
	}
	if got := recvString(t, fc); got != "next" {
		t.Fatalf("message = %q, want %q (stream 1 must never be delivered)", got, "next")
	}
	if len(fc.open) != 0 || len(fc.bufs) != 0 || fc.parked != 0 {
		t.Fatalf("reassembly state left behind: %d streams, %d bytes", len(fc.open), fc.parked)
	}
	// The overtaking fragment discards the stream; the late one finds no
	// stream to join and is counted as a second discard.
	if n := dropped.Value() - before; n != 2 {
		t.Fatalf("dropped_streams moved by %d, want 2", n)
	}
}

// budgetConn is a batch-aware sink that accepts a fixed number of
// datagrams and fails every one after that, releasing whatever it is
// handed either way.
type budgetConn struct {
	core.Conn
	budget int
	bursts []int // size of each SendBufs burst it saw
}

var errBudget = errors.New("datagram budget spent")

func (c *budgetConn) Headroom() int { return 0 }

// Receives are never called; they complete core.BatchConn so the send
// helpers take the vectored path.
func (c *budgetConn) RecvBuf(context.Context) (*wire.Buf, error)         { return nil, core.ErrClosed }
func (c *budgetConn) RecvBufs(context.Context, []*wire.Buf) (int, error) { return 0, core.ErrClosed }

func (c *budgetConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	b.Release()
	if c.budget == 0 {
		return errBudget
	}
	c.budget--
	return nil
}

func (c *budgetConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	c.bursts = append(c.bursts, len(bs))
	core.ReleaseAll(bs)
	if len(bs) > c.budget {
		sent := c.budget
		c.budget = 0
		return &core.BatchError{Sent: sent, Err: errBudget}
	}
	c.budget -= len(bs)
	return nil
}

// TestMixedSendBufsCountsWholeMessages sends (small, large, small) with
// the layer below failing at every possible datagram: BatchError.Sent
// counts whole messages — a large message cut off inside its fragment
// burst is not counted — and the cause comes back unwrapped. The large
// message always goes down as exactly one burst.
func TestMixedSendBufsCountsWholeMessages(t *testing.T) {
	const maxFrame = 4
	large := bytes.Repeat([]byte{7}, 3*maxFrame+1) // 4 fragments
	for budget := 0; budget <= 6; budget++ {
		sink := &budgetConn{budget: budget}
		conn, err := New(sink, maxFrame)
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		burst := []*wire.Buf{
			wire.NewBufFrom(headerLen, []byte("s1")),
			wire.NewBufFrom(headerLen, large),
			wire.NewBufFrom(headerLen, []byte("s2")),
		}
		err = conn.(core.BatchConn).SendBufs(context.Background(), burst)
		// Datagrams on the wire: 1 + 4 + 1.
		want := map[int]int{0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 2}[budget]
		if budget == 6 {
			if err != nil {
				t.Fatalf("budget %d: SendBufs = %v, want success", budget, err)
			}
		} else {
			var be *core.BatchError
			if !errors.As(err, &be) || be.Sent != want {
				t.Fatalf("budget %d: SendBufs = %v, want BatchError with Sent %d", budget, err, want)
			}
			if be.Err != errBudget {
				t.Fatalf("budget %d: cause = %v, want the bare failure (no nested BatchError)", budget, be.Err)
			}
		}
		if budget >= 1 && (len(sink.bursts) < 2 || sink.bursts[1] != 4) {
			t.Fatalf("budget %d: bursts below = %v, want the large message as one burst of 4", budget, sink.bursts)
		}
	}
}

// TestFragmentSendErrorIsTheMessages checks SendBuf's error contract on
// the fragmented path: the caller sent one message, so it gets the
// failure itself, not a count of fragments.
func TestFragmentSendErrorIsTheMessages(t *testing.T) {
	conn, err := New(&budgetConn{budget: 2}, 4)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	err = conn.Send(context.Background(), bytes.Repeat([]byte{1}, 20))
	if err != errBudget {
		t.Fatalf("Send = %v, want the bare cause %v", err, errBudget)
	}
	if err := conn.Send(context.Background(), make([]byte, MaxMessage+1)); !errors.Is(err, core.ErrMessageTooLarge) {
		t.Fatalf("Send of MaxMessage+1 bytes = %v, want ErrMessageTooLarge", err)
	}
}

// TestReassemblyBounds opens more streams, and parks more bytes, than a
// connection may hold: the oldest streams are discarded and counted, the
// newest survive and still complete.
func TestReassemblyBounds(t *testing.T) {
	dropped := telemetry.Default().Counter(DroppedStreamsCounter)

	t.Run("streams", func(t *testing.T) {
		_, fc := pipePair(t, 4)
		defer fc.Close()
		before := dropped.Value()
		for id := uint32(1); id <= maxOpenStreams+3; id++ {
			if msg, _, err := fc.processFrame(frame(id, 0, false, []byte("x"))); msg != nil || err != nil {
				t.Fatalf("first fragment of stream %d: msg %v err %v", id, msg, err)
			}
		}
		if len(fc.open) != maxOpenStreams {
			t.Fatalf("%d streams open, want the bound %d", len(fc.open), maxOpenStreams)
		}
		if n := dropped.Value() - before; n != 3 {
			t.Fatalf("dropped_streams moved by %d, want 3", n)
		}
		if fc.open[0].id != 4 {
			t.Fatalf("oldest surviving stream is %d, want 4 (1-3 evicted)", fc.open[0].id)
		}
		msg, _, err := fc.processFrame(frame(maxOpenStreams+3, 1, true, []byte("y")))
		if err != nil || msg == nil || string(msg.Bytes()) != "xy" {
			t.Fatalf("newest stream did not complete: %v %v", msg, err)
		}
		msg.Release()
	})

	t.Run("bytes", func(t *testing.T) {
		_, fc := pipePair(t, 4)
		defer fc.Close()
		before := dropped.Value()
		chunk := make([]byte, MaxMessage/4)
		// Five streams of a quarter of the bound each: the fifth pushes
		// the first out.
		for id := uint32(1); id <= 5; id++ {
			fc.processFrame(frame(id, 0, false, chunk))
		}
		if fc.parked > MaxMessage || len(fc.open) != 4 || fc.open[0].id != 2 {
			t.Fatalf("parked %d bytes in %d streams (oldest %d), want ≤ %d in 4 (oldest 2)",
				fc.parked, len(fc.open), fc.open[0].id, MaxMessage)
		}
		// A single stream may grow to the bound and no further.
		for i := 1; i <= 4; i++ {
			fc.processFrame(frame(5, i, false, chunk))
		}
		if len(fc.open) != 0 || fc.parked != 0 {
			t.Fatalf("a stream past MaxMessage survived: %d streams, %d bytes", len(fc.open), fc.parked)
		}
		if n := dropped.Value() - before; n != 5 {
			t.Fatalf("dropped_streams moved by %d, want 5", n)
		}
	})
}

// TestCloseReleasesEverything is the conservation check on Close: a
// parked partial stream, completed messages still queued, and the burst
// scratch all go back to the pool.
func TestCloseReleasesEverything(t *testing.T) {
	baseline := wire.BufsOutstanding()
	raw, fc := pipePair(t, 4)
	inject(t, raw,
		frame(1, 0, false, []byte("aaaa")), frame(1, 1, true, []byte("a")),
		frame(2, 0, false, []byte("bbbb")), frame(2, 1, true, []byte("b")),
		frame(3, 0, true, []byte("c")),
		frame(4, 0, false, []byte("dddd")), // never finished
	)
	first, err := core.RecvBuf(context.Background(), fc)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if fc.nready.Load() != 2 || len(fc.open) != 1 {
		t.Fatalf("before close: %d queued, %d open; want 2 and 1", fc.nready.Load(), len(fc.open))
	}
	if err := fc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	raw.Close()
	if got := wire.BufsOutstanding(); got != baseline+1 {
		t.Fatalf("%d pooled buffers outstanding after Close, want %d (only the delivered message)", got, baseline+1)
	}
	first.Release()
	if got := wire.BufsOutstanding(); got != baseline {
		t.Fatalf("%d pooled buffers outstanding, want the baseline %d", got, baseline)
	}
}

// FuzzProcessFrame drives the header parser and the reassembly state
// machine with arbitrary frame sequences. The input is a list of
// length-prefixed frames. Whatever arrives: no panic, the bounds hold,
// the byte accounting matches the buffers, a delivered message is
// exactly the in-order concatenation of its stream's fragments, and
// Close returns every pooled buffer.
func FuzzProcessFrame(f *testing.F) {
	hdr := func(ft, flags byte, id uint32, idx uint16, payload string) []byte {
		h := make([]byte, headerLen, headerLen+len(payload))
		h[0], h[1] = ft, flags
		binary.LittleEndian.PutUint32(h[2:6], id)
		binary.LittleEndian.PutUint16(h[6:8], idx)
		return append(h, payload...)
	}
	seq := func(frames ...[]byte) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, byte(len(fr)))
			out = append(out, fr...)
		}
		return out
	}
	f.Add(seq(hdr(frameData, flagEndStream, 1, 0, "single")))
	f.Add(seq(hdr(frameData, 0, 1, 0, "ab"), hdr(frameContinuation, 0, 1, 1, "cd"), hdr(frameContinuation, flagEndStream, 1, 2, "e")))
	f.Add(seq(hdr(frameData, 0, 1, 0, "ab"), hdr(frameContinuation, flagEndStream, 1, 2, "reordered")))
	f.Add(seq(hdr(frameData, 0, 1, 0, "a"), hdr(frameData, 0, 2, 0, "b"), hdr(frameContinuation, flagEndStream, 2, 1, "B"), hdr(frameContinuation, flagEndStream, 1, 1, "A")))
	f.Add(seq([]byte{1, 2, 3}, hdr(0x5, 0, 9, 0, "bad type")))
	f.Add(seq(hdr(frameContinuation, flagEndStream, 0xffffffff, 0xffff, "")))

	f.Fuzz(func(t *testing.T, data []byte) {
		baseline := wire.BufsOutstanding()
		_, fc := pipePair(t, 4)
		model := map[uint32][]byte{} // stream → bytes its open fragments carried
		for len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			raw := data[:n]
			data = data[n:]

			msg, open, err := fc.processFrame(wire.NewBufFrom(0, raw))
			if err != nil {
				if msg != nil {
					t.Fatalf("message delivered alongside error %v", err)
				}
				continue
			}
			id := binary.LittleEndian.Uint32(raw[2:6])
			payload := raw[headerLen:]
			if msg != nil {
				want := append(model[id], payload...)
				if !bytes.Equal(msg.Bytes(), want) {
					t.Fatalf("stream %d delivered %q, want %q", id, msg.Bytes(), want)
				}
				msg.Release()
				delete(model, id)
			} else if fc.findLocked(id) >= 0 {
				model[id] = append(model[id], payload...)
			}
			// Streams the connection dropped or evicted leave the model.
			sum := 0
			for mid := range model {
				if fc.findLocked(mid) < 0 {
					delete(model, mid)
				}
			}
			for i, b := range fc.bufs {
				sum += b.Len()
				if !bytes.Equal(b.Bytes(), model[fc.open[i].id]) {
					t.Fatalf("stream %d holds %q, want %q", fc.open[i].id, b.Bytes(), model[fc.open[i].id])
				}
			}
			if len(fc.open) != len(fc.bufs) || len(fc.open) > maxOpenStreams {
				t.Fatalf("%d streams / %d buffers open, bound %d", len(fc.open), len(fc.bufs), maxOpenStreams)
			}
			if fc.parked != sum || sum > MaxMessage {
				t.Fatalf("parked = %d, buffers hold %d, bound %d", fc.parked, sum, MaxMessage)
			}
			if open != (len(fc.open) > 0) {
				t.Fatalf("open = %v with %d streams open", open, len(fc.open))
			}
		}
		fc.Close()
		if got := wire.BufsOutstanding(); got != baseline {
			t.Fatalf("%d pooled buffers outstanding after Close, want %d", got, baseline)
		}
	})
}

// holdConn is a batch-aware sink that keeps every burst it is handed,
// as a transport still sending it would, behind headroom bytes of its
// own header space.
type holdConn struct {
	core.Conn
	headroom int
	held     []*wire.Buf
}

func (c *holdConn) Headroom() int                                      { return c.headroom }
func (c *holdConn) RecvBuf(context.Context) (*wire.Buf, error)         { return nil, core.ErrClosed }
func (c *holdConn) RecvBufs(context.Context, []*wire.Buf) (int, error) { return 0, core.ErrClosed }

func (c *holdConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	c.held = append(c.held, b)
	return nil
}

func (c *holdConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	c.held = append(c.held, bs...)
	return nil
}

// TestFragmentBurstBackings holds a fragmented message's burst below
// framing. A 16 KiB message's 14 fragments hold one pooled backing, and
// a message too large for one backing spreads over as few as hold it.
// Each fragment carries its frame header and payload, with exactly the
// layers below's headroom in front and no tailroom, and a write into
// that headroom leaves the other fragments unchanged. Releasing the
// fragments gives every backing back.
func TestFragmentBurstBackings(t *testing.T) {
	const inner = 12
	for _, tc := range []struct {
		size, maxFrame, frags, backings int
	}{
		{16 << 10, 1200, 14, 1},
		{200 << 10, DefaultMaxFrame, 13, 5}, // three 16 KiB fragments per 64 KiB backing
	} {
		sink := &holdConn{headroom: inner}
		conn, err := New(sink, tc.maxFrame)
		if err != nil {
			t.Fatal(err)
		}
		p := make([]byte, tc.size)
		for i := range p {
			p[i] = byte(i*7 + i>>9)
		}
		base := wire.BufsOutstanding()
		if err := conn.Send(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		if len(sink.held) != tc.frags {
			t.Fatalf("%d-byte message: %d fragments, want %d", tc.size, len(sink.held), tc.frags)
		}
		if d := wire.BufsOutstanding() - base; d != int64(tc.backings) {
			t.Fatalf("%d-byte message: its %d fragments hold %d pooled buffers, want %d",
				tc.size, tc.frags, d, tc.backings)
		}
		want := make([][]byte, len(sink.held))
		for i, f := range sink.held {
			b := f.Bytes()
			lo := i * tc.maxFrame
			if f.Headroom() != inner || f.Tailroom() != 0 || len(b) < headerLen ||
				binary.LittleEndian.Uint16(b[6:8]) != uint16(i) ||
				!bytes.Equal(b[headerLen:], p[lo:min(lo+tc.maxFrame, len(p))]) {
				t.Fatalf("fragment %d of %d: headroom %d, tailroom %d, %d bytes; want %d, 0 and its header and payload",
					i, tc.frags, f.Headroom(), f.Tailroom(), len(b), inner)
			}
			want[i] = bytes.Clone(b)
		}
		for i, f := range sink.held {
			h := f.Prepend(inner)
			for j := range h {
				h[j] = 0xee
			}
			want[i] = append(bytes.Repeat([]byte{0xee}, inner), want[i]...)
			for j, o := range sink.held {
				if !bytes.Equal(o.Bytes(), want[j]) {
					t.Fatalf("fragment %d changed by a write into fragment %d's headroom", j, i)
				}
			}
		}
		core.ReleaseAll(sink.held)
		if d := wire.BufsOutstanding() - base; d != 0 {
			t.Fatalf("%d-byte message: %d pooled buffers left after its fragments were released", tc.size, d)
		}
	}
}
