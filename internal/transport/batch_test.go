package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

func udpPairT(t *testing.T) (core.Conn, core.Conn) {
	t.Helper()
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatalf("udp pair: %v", err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func recvN(ctx context.Context, t *testing.T, c core.Conn, n int) []*wire.Buf {
	t.Helper()
	got := make([]*wire.Buf, 0, n)
	scratch := make([]*wire.Buf, n)
	for len(got) < n {
		k, err := core.RecvBufs(ctx, c, scratch[:n-len(got)])
		if err != nil {
			t.Fatalf("recv after %d of %d: %v", len(got), n, err)
		}
		got = append(got, scratch[:k]...)
	}
	return got
}

// mkSizes builds a burst with the given message sizes, message i filled
// with byte(i+j) at offset j so boundaries and order are checkable.
func mkSizes(sizes ...int) ([]*wire.Buf, [][]byte) {
	bs := make([]*wire.Buf, len(sizes))
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i + j)
		}
		want[i] = p
		bs[i] = wire.NewBufFrom(0, p)
	}
	return bs, want
}

// fragmentSizes is the shape framing produces: n-1 uniform fragments and
// a short tail.
func fragmentSizes(n, seg, tail int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = seg
	}
	sizes[n-1] = tail
	return sizes
}

// TestUDPBatchRoundTrip pushes one equal-size burst (the GSO fast path
// on linux) and one mixed-size burst (per-message sendmmsg framing)
// through a socket pair and checks every datagram arrives intact with
// its boundaries preserved.
func TestUDPBatchRoundTrip(t *testing.T) {
	ctx := ctxT(t)
	a, b := udpPairT(t)

	sizes := [][]int{
		{128, 128, 128, 128, 128, 128, 128, 128}, // uniform: GSO eligible
		{16, 900, 1, 400, 16, 16},                // mixed: plain sendmmsg
		// Uniform but above the GSO segment cap: must ride sendmmsg (a
		// gso_size beyond the path MTU would EINVAL where sendmmsg
		// delivers via IP fragmentation).
		{2048, 2048, 2048, 2048, 2048, 2048},
	}
	for _, burst := range sizes {
		want := make([][]byte, len(burst))
		bs := make([]*wire.Buf, len(burst))
		for i, n := range burst {
			p := make([]byte, n)
			for j := range p {
				p[j] = byte(i + j)
			}
			want[i] = p
			bs[i] = wire.NewBufFrom(0, p)
		}
		if err := core.SendBufs(ctx, a, bs); err != nil {
			t.Fatalf("SendBufs(%v): %v", burst, err)
		}
		got := recvN(ctx, t, b, len(burst))
		for i, g := range got {
			if !bytes.Equal(g.Bytes(), want[i]) {
				t.Errorf("burst %v message %d: got %d bytes %x..., want %d bytes",
					burst, i, g.Len(), g.Bytes()[:min(8, g.Len())], len(want[i]))
			}
			g.Release()
		}
	}
}

// TestUDPBatchOversizeAborts checks the partial-send contract: an
// oversize element aborts the burst at its index, the valid prefix is
// still transmitted, and BatchError.Sent reports it.
func TestUDPBatchOversizeAborts(t *testing.T) {
	ctx := ctxT(t)
	a, b := udpPairT(t)

	bs := []*wire.Buf{
		wire.NewBufFrom(0, []byte("one")),
		wire.NewBufFrom(0, []byte("two")),
		wire.NewBufFrom(0, make([]byte, MaxDatagram+1)),
		wire.NewBufFrom(0, []byte("four")),
	}
	err := core.SendBufs(ctx, a, bs)
	if !errors.Is(err, core.ErrMessageTooLarge) {
		t.Fatalf("SendBufs = %v, want ErrMessageTooLarge", err)
	}
	if sent := core.BatchSent(err); sent != 2 {
		t.Errorf("BatchError.Sent = %d, want 2", sent)
	}
	for _, g := range recvN(ctx, t, b, 2) {
		g.Release()
	}
}

// TestUDPConcurrentBatchWriters hammers one socket with batched writers
// from several goroutines — the single-wmu-per-burst path plus the GSO
// scratch state must hold up under the race detector — and verifies
// every message arrives uncorrupted.
func TestUDPConcurrentBatchWriters(t *testing.T) {
	ctx := ctxT(t)
	a, b := udpPairT(t)

	const (
		writers = 4
		bursts  = 16
		burstSz = 8
		payload = 32
	)
	// Writers can outrun the kernel's receive queue on loopback and the
	// dropped datagrams would starve the exact-count check below; bound
	// the bursts in flight and let the receiver release slots as it
	// drains. The contention the race detector cares about — concurrent
	// SendBufs on one socket — is unaffected.
	inflight := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < bursts; r++ {
				inflight <- struct{}{}
				bs := make([]*wire.Buf, burstSz)
				for i := range bs {
					m := wire.NewBuf(0, payload)
					binary.LittleEndian.PutUint32(m.Bytes()[0:], uint32(w))
					binary.LittleEndian.PutUint32(m.Bytes()[4:], uint32(r*burstSz+i))
					bs[i] = m
				}
				if err := core.SendBufs(ctx, a, bs); err != nil {
					t.Errorf("writer %d burst %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}

	total := writers * bursts * burstSz
	seen := make(map[[2]uint32]bool, total)
	scratch := make([]*wire.Buf, burstSz)
	for received := 0; received < total; {
		n, err := core.RecvBufs(ctx, b, scratch)
		if err != nil {
			t.Fatalf("recv after %d of %d: %v", received, total, err)
		}
		for _, g := range scratch[:n] {
			received++
			if received%burstSz == 0 {
				<-inflight // one burst drained: admit another
			}
			if g.Len() != payload {
				t.Fatalf("received %d bytes, want %d", g.Len(), payload)
			}
			key := [2]uint32{
				binary.LittleEndian.Uint32(g.Bytes()[0:]),
				binary.LittleEndian.Uint32(g.Bytes()[4:]),
			}
			if seen[key] {
				t.Errorf("duplicate message writer=%d seq=%d", key[0], key[1])
			}
			seen[key] = true
			g.Release()
		}
	}
	wg.Wait()
	if len(seen) != total {
		t.Errorf("received %d distinct messages, want %d", len(seen), total)
	}
}

// TestPipeBatchPartialSendCounted aborts a pipe burst mid-way (context
// deadline with the pipe full) and checks the messages that did go out
// are reflected in both BatchError.Sent and the sent counter — the same
// partial-send accounting socketConn.SendBufs does.
func TestPipeBatchPartialSendCounted(t *testing.T) {
	a, _ := Pipe(core.Addr{}, core.Addr{}, 2)
	sent := countersFor("pipe").sent
	before := sent.Value()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	bs := make([]*wire.Buf, 5)
	for i := range bs {
		bs[i] = wire.NewBuf(0, 4)
	}
	err := core.SendBufs(ctx, a, bs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SendBufs on full pipe = %v, want DeadlineExceeded", err)
	}
	if n := core.BatchSent(err); n != 2 {
		t.Fatalf("BatchError.Sent = %d, want 2 (pipe capacity)", n)
	}
	if d := sent.Value() - before; d != 2 {
		t.Errorf("sent counter advanced by %d, want 2 (partial burst must be counted)", d)
	}
}

// TestBatchOverLossyPartialLoss sends bursts through a lossy link that
// is not batch-aware: core.SendBufs degrades to the per-message loop,
// losses hit individual elements of the burst, and the survivors arrive
// intact.
func TestBatchOverLossyPartialLoss(t *testing.T) {
	ctx := ctxT(t)
	a, b := Pipe(core.Addr{}, core.Addr{}, 1024)
	lossy := Lossy(a, LossConfig{Seed: 11, DropProb: 0.5})

	const bursts, burstSz = 25, 8
	for r := 0; r < bursts; r++ {
		bs := make([]*wire.Buf, burstSz)
		for i := range bs {
			m := wire.NewBuf(0, 4)
			binary.LittleEndian.PutUint32(m.Bytes(), uint32(r*burstSz+i))
			bs[i] = m
		}
		if err := core.SendBufs(ctx, lossy, bs); err != nil {
			t.Fatalf("burst %d: %v", r, err)
		}
	}
	a.Close()

	got := 0
	scratch := make([]*wire.Buf, burstSz)
	for {
		n, err := core.RecvBufs(ctx, b, scratch)
		if err != nil {
			break // peer closed: drained
		}
		for _, g := range scratch[:n] {
			if g.Len() != 4 {
				t.Fatalf("received %d bytes, want 4", g.Len())
			}
			g.Release()
		}
		got += n
	}
	total := bursts * burstSz
	if got == 0 || got == total {
		t.Errorf("drop rate 0.5 delivered %d of %d", got, total)
	}
	if got < total/4 || got > 3*total/4 {
		t.Errorf("implausible delivery count %d for p=0.5", got)
	}
}

// TestBatchOverLossyReorder sends one large burst through a reordering
// link and drains it with RecvBufs: everything arrives exactly once,
// but not in send order.
func TestBatchOverLossyReorder(t *testing.T) {
	ctx := ctxT(t)
	a, b := Pipe(core.Addr{}, core.Addr{}, 1024)
	lossy := Lossy(a, LossConfig{Seed: 3, ReorderProb: 0.5, ReorderDelay: 30 * time.Millisecond})

	const total = 48
	bs := make([]*wire.Buf, total)
	for i := range bs {
		m := wire.NewBuf(0, 4)
		binary.LittleEndian.PutUint32(m.Bytes(), uint32(i))
		bs[i] = m
	}
	if err := core.SendBufs(ctx, lossy, bs); err != nil {
		t.Fatalf("SendBufs: %v", err)
	}

	var order []uint32
	for _, g := range recvN(ctx, t, b, total) {
		order = append(order, binary.LittleEndian.Uint32(g.Bytes()))
		g.Release()
	}
	seen := make(map[uint32]bool, total)
	inOrder := true
	for i, v := range order {
		if seen[v] {
			t.Errorf("message %d delivered twice", v)
		}
		seen[v] = true
		if i > 0 && v < order[i-1] {
			inOrder = false
		}
	}
	if len(seen) != total {
		t.Errorf("received %d distinct messages, want %d", len(seen), total)
	}
	if inOrder {
		t.Error("reorder config delivered the whole burst in order")
	}
}
