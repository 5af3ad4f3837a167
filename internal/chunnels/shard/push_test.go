package shard

import (
	"context"
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
