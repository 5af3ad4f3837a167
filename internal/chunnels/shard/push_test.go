package shard

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
	"github.com/bertha-net/bertha/internal/xdp"
)

// TestPushCloseJoinsAndReleases closes a client-push connection whose
// fan-in workers have taken a full queue of replies off its sockets:
// Close returns with every worker joined and every reply the connection
// took off its sockets back in the pool.
func TestPushCloseJoinsAndReleases(t *testing.T) {
	ctx := context.Background()
	baseG := runtime.NumGoroutine()
	baseBufs := wire.BufsOutstanding()
	recvd := telemetry.Default().Counter("transport/pipe/datagrams_recvd")
	baseRecvd := recvd.Value()

	const shards, each = 2, 400 // 3 connections × 400 > the 1024-slot queue
	var local, remote []core.Conn
	for i := 0; i <= shards; i++ {
		a := core.Addr{Net: "pipe", Host: "cli", Addr: "cli"}
		b := core.Addr{Net: "pipe", Host: "srv", Addr: "srv"}
		l, r := transport.Pipe(a, b, each)
		local, remote = append(local, l), append(remote, r)
	}
	p := newPushConn(local[shards], local[:shards], xdp.FieldHash{Shards: shards})
	for _, r := range remote {
		for i := 0; i < each; i++ {
			if err := r.Send(ctx, []byte("reply")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		b, err := p.RecvBuf(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	// Once the workers have taken 1024 replies off the pipes beyond the
	// ten the application took, the queue is full or they hold what
	// fills it, and the rest waits in their bursts and the pipes.
	deadline := time.Now().Add(5 * time.Second)
	for recvd.Value()-baseRecvd < 1024+10 {
		if time.Now().After(deadline) {
			t.Fatalf("the fan-in took %d replies off the pipes", recvd.Value()-baseRecvd)
		}
		time.Sleep(time.Millisecond)
	}

	p.Close()
	for _, r := range remote {
		r.Close() // both halves closed: the pipes release what they still hold
	}
	if got := wire.BufsOutstanding(); got != baseBufs {
		t.Fatalf("%d pooled buffers outstanding after Close, want the baseline %d", got, baseBufs)
	}
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseG {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want the baseline %d", runtime.NumGoroutine(), baseG)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPushBatchPartialSendCounted steers one burst over two shards
// whose second shard's pipe fills partway through its run: the burst
// aborts there, and BatchError.Sent counts every message that left,
// the first shard's run and the second's transmitted prefix.
func TestPushBatchPartialSendCounted(t *testing.T) {
	baseBufs := wire.BufsOutstanding()
	fh := xdp.FieldHash{Shards: 2}
	var keys [2][]byte // a one-byte message for each shard
	for c := 0; keys[0] == nil || keys[1] == nil; c++ {
		if k := []byte{byte(c)}; keys[fh.Apply(k)] == nil {
			keys[fh.Apply(k)] = k
		}
	}
	var local, remote []core.Conn
	for _, capacity := range []int{8, 2, 1} { // shard 0, shard 1, canonical
		l, r := transport.Pipe(core.Addr{Net: "pipe", Addr: "cli"}, core.Addr{Net: "pipe", Addr: "srv"}, capacity)
		local, remote = append(local, l), append(remote, r)
	}
	p := newPushConn(local[2], local[:2], fh)

	var bs []*wire.Buf
	for _, shard := range []int{0, 0, 1, 1, 1, 0} {
		bs = append(bs, wire.NewBufFrom(0, keys[shard]))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := p.SendBufs(ctx, bs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SendBufs with shard 1's pipe full = %v, want DeadlineExceeded", err)
	}

	transmitted := 0
	for _, r := range remote[:2] {
		for {
			rctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			b, err := core.RecvBuf(rctx, r)
			cancel()
			if err != nil {
				break
			}
			b.Release()
			transmitted++
		}
	}
	if transmitted != 4 {
		t.Fatalf("%d messages reached the shards, want 4: shard 0's run of 2 and shard 1's pipe capacity", transmitted)
	}
	if n := core.BatchSent(err); n != transmitted {
		t.Errorf("BatchError.Sent = %d, want the %d messages that were transmitted", n, transmitted)
	}
	p.Close()
	for _, r := range remote {
		r.Close()
	}
	if got := wire.BufsOutstanding(); got != baseBufs {
		t.Errorf("%d pooled buffers outstanding, want the baseline %d", got, baseBufs)
	}
}
