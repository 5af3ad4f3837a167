package kv_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/kv"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

func encodeReq(t testing.TB, r kv.Request) []byte {
	t.Helper()
	e := wire.NewEncoder(nil)
	if err := kv.EncodeRequest(e, r); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), e.Bytes()...)
}

// TestKVServeAllocs pins the zero-copy serving path: a GET through
// ServeShard on a pipe — request decoded in place, response built in the
// pooled reply — allocates nothing, and an UPDATE allocates exactly the
// store's own copy of the value.
func TestKVServeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := ctxT(t)
	pn := transport.NewPipeNetwork()
	srv, err := kv.NewServer(1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := pn.Listen("srv", "kv-allocs")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv.ServeShard(0, l)
	if err := srv.Preload([]string{"k"}, bytes.Repeat([]byte{0xAB}, 100)); err != nil {
		t.Fatal(err)
	}
	conn, err := pn.DialFrom(ctx, "cli", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	get := encodeReq(t, kv.Request{ID: 1, Op: kv.OpGet, Key: "k"})
	update := encodeReq(t, kv.Request{ID: 2, Op: kv.OpUpdate, Key: "k", Value: bytes.Repeat([]byte{0xCD}, 100)})
	roundTrip := func(req []byte, wantLen int) {
		if err := core.SendBuf(ctx, conn, wire.NewBufFrom(0, req)); err != nil {
			t.Fatal(err)
		}
		b, err := core.RecvBuf(ctx, conn)
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != wantLen || b.Bytes()[8] != byte(kv.StatusOK) {
			t.Fatalf("reply of %d bytes, status %d; want %d bytes, OK", b.Len(), b.Bytes()[8], wantLen)
		}
		b.Release()
	}
	for _, tc := range []struct {
		name    string
		req     []byte
		wantLen int
		max     float64
	}{
		{"GET", get, 9 + 100, 0},
		{"UPDATE", update, 9, 1},
	} {
		roundTrip(tc.req, tc.wantLen) // warm the pools
		if avg := testing.AllocsPerRun(200, func() { roundTrip(tc.req, tc.wantLen) }); avg > tc.max {
			t.Errorf("%s through ServeShard allocates %.2f objects/op, want at most %.0f", tc.name, avg, tc.max)
		}
	}
}

// TestKVWindowedRequestsBatch is the realized-batching smoke: a client
// that keeps 16 requests outstanding on a UDP shard connection is served
// in bursts, so the server sends more than one reply per send syscall.
// The transport's counters are process-wide; the client's own sends (one
// datagram and one syscall each) are counted here and taken out.
func TestKVWindowedRequestsBatch(t *testing.T) {
	ctx := ctxT(t)
	srv, err := kv.NewServer(1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := transport.ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv.ServeShard(0, l)
	value := bytes.Repeat([]byte{0xAB}, 100)
	if err := srv.Preload([]string{"k"}, value); err != nil {
		t.Fatal(err)
	}
	conn, err := transport.DialUDP("cli", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	counter := func(name string) uint64 { return telemetry.Default().Counter("transport/udp/" + name).Value() }
	sent0, calls0 := counter("datagrams_sent"), counter("send_syscalls")

	const total, window = 20000, 16
	var clientSends uint64
	outstanding := map[uint64]bool{}
	send := func(id uint64) {
		op, val := kv.OpGet, []byte(nil)
		if id%2 == 0 {
			op, val = kv.OpUpdate, value
		}
		if err := conn.Send(ctx, encodeReq(t, kv.Request{ID: id, Op: op, Key: "k", Value: val})); err != nil {
			t.Fatal(err)
		}
		clientSends++
	}
	for next, done := uint64(1), 0; done < total; {
		for len(outstanding) < window && next <= total {
			outstanding[next] = true
			send(next)
			next++
		}
		rctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		m, err := conn.Recv(rctx)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			for id := range outstanding {
				send(id) // a datagram was lost: ask again
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := kv.DecodeResponse(m)
		if err != nil || resp.Status != kv.StatusOK {
			t.Fatalf("reply %+v, %v", resp, err)
		}
		if outstanding[resp.ID] {
			delete(outstanding, resp.ID)
			done++
		}
	}
	replies := counter("datagrams_sent") - sent0 - clientSends
	calls := counter("send_syscalls") - calls0 - clientSends
	if replies < total || calls == 0 {
		t.Fatalf("counters: %d replies in %d syscalls for %d requests", replies, calls, total)
	}
	if ratio := float64(replies) / float64(calls); ratio <= 1.5 {
		t.Errorf("server sent %d replies in %d syscalls (%.2f per syscall), want more than 1.5", replies, calls, ratio)
	} else {
		t.Logf("server sent %d replies in %d syscalls: %.2f per syscall", replies, calls, ratio)
	}
}
