package shard

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// burstRecorder is the connection under a steeredConn: it records the
// size of every send.
type burstRecorder struct {
	core.Conn // nil: only the send side is used
	mu        sync.Mutex
	bursts    []int
}

func (r *burstRecorder) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	r.mu.Lock()
	r.bursts = append(r.bursts, len(bs))
	r.mu.Unlock()
	core.ReleaseAll(bs)
	return nil
}

func (r *burstRecorder) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	<-ctx.Done()
	return 0, ctx.Err()
}

func (r *burstRecorder) sizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.bursts...)
}

// TestSteeredReplyFlushRule pins when a steered connection's parked
// replies leave: with the answer to the last outstanding request, and at
// the cap; a request that arrives alone is answered at once.
func TestSteeredReplyFlushRule(t *testing.T) {
	ctx := context.Background()
	base := wire.BufsOutstanding()
	rec := &burstRecorder{}
	sc := &steeredConn{conn: rec}

	sc.expect(1)
	if err := sc.reply(ctx, []byte("alone")); err != nil {
		t.Fatal(err)
	}
	if got := rec.sizes(); !slices.Equal(got, []int{1}) {
		t.Fatalf("a lone request's reply: sends %v, want [1]", got)
	}

	sc.expect(3)
	for i, want := range [][]int{{1}, {1}, {1, 3}} {
		if err := sc.reply(ctx, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		if got := rec.sizes(); !slices.Equal(got, want) {
			t.Fatalf("after reply %d of 3: sends %v, want %v", i+1, got, want)
		}
	}

	// 100 outstanding: the cap flushes the first 64, the last answer the
	// other 36.
	sc.expect(100)
	for i := 0; i < 100; i++ {
		if err := sc.reply(ctx, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.sizes(); !slices.Equal(got, []int{1, 3, replyBurstCap, 100 - replyBurstCap}) {
		t.Fatalf("sends %v, want [1 3 %d %d]", got, replyBurstCap, 100-replyBurstCap)
	}
	// A reply nobody was waiting for (the application answered twice)
	// goes out by itself and does not unbalance the count.
	if err := sc.reply(ctx, []byte("extra")); err != nil {
		t.Fatal(err)
	}
	sc.expect(2)
	sc.reply(ctx, []byte("x"))
	if got := rec.sizes(); len(got) != 5 || got[4] != 1 {
		t.Fatalf("sends %v: want the unexpected reply sent alone and the next burst still parked", got)
	}
	sc.reply(ctx, []byte("y"))
	if got := rec.sizes(); len(got) != 6 || got[5] != 2 {
		t.Fatalf("sends %v, want a final burst of 2", got)
	}
	sc.close()
	if got := wire.BufsOutstanding(); got != base {
		t.Fatalf("%d pooled buffers outstanding, want the baseline %d", got, base)
	}
}

// TestSteeredCloseReleasesParked closes a connection that still holds
// parked replies: they go back to the pool, and later replies are refused.
func TestSteeredCloseReleasesParked(t *testing.T) {
	ctx := context.Background()
	base := wire.BufsOutstanding()
	rec := &burstRecorder{}
	sc := &steeredConn{conn: rec, headroom: 8}
	sc.expect(3)
	sc.reply(ctx, []byte("one"))
	sc.reply(ctx, []byte("two"))
	if held := wire.BufsOutstanding() - base; held != 2 {
		t.Fatalf("%d buffers parked, want 2", held)
	}
	sc.close()
	if got := wire.BufsOutstanding(); got != base {
		t.Fatalf("%d pooled buffers outstanding after close, want the baseline %d", got, base)
	}
	if err := sc.reply(ctx, []byte("three")); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("reply after close = %v, want ErrClosed", err)
	}
	if got := wire.BufsOutstanding(); got != base {
		t.Fatalf("a refused reply left %d buffers outstanding, want %d", got, base)
	}
	if got := rec.sizes(); len(got) != 0 {
		t.Fatalf("sends %v on a connection closed before its burst completed", got)
	}
}

// TestSteeredConcurrentReplies answers one connection's requests from
// several workers at once, as the shard workers do: every reply is sent
// exactly once.
func TestSteeredConcurrentReplies(t *testing.T) {
	ctx := context.Background()
	rec := &burstRecorder{}
	sc := &steeredConn{conn: rec}
	const workers, each = 3, 500
	var wg sync.WaitGroup
	for round := 0; round < each; round++ {
		sc.expect(workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc.reply(ctx, []byte("r"))
			}()
		}
		if round%7 == 0 {
			wg.Wait() // some bursts complete before the next is expected, some overlap
		}
	}
	wg.Wait()
	sent := 0
	for _, n := range rec.sizes() {
		sent += n
	}
	if sent != workers*each {
		t.Fatalf("%d replies sent, want %d", sent, workers*each)
	}
	sc.close()
}
