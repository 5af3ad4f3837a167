package transport

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/testutil"
)

// unixPair listens at path, dials it and returns both ends, the server's
// accepted on the client's first datagram.
func unixPair(t *testing.T, path string) (cli, srv core.Conn) {
	t.Helper()
	ctx := ctxT(t)
	l, err := ListenUnix("h", path)
	if err != nil {
		t.Fatalf("listen %d-byte path: %v", len(path), err)
	}
	t.Cleanup(func() { l.Close() })
	cli, err = DialUnix("h", path)
	if err != nil {
		t.Fatalf("dial %d-byte path: %v", len(path), err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := cli.Send(ctx, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	srv, err = l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if m, err := srv.Recv(ctx); err != nil || string(m) != "hello" {
		t.Fatalf("server recv = %q, %v", m, err)
	}
	return cli, srv
}

// TestUnixReactorAllocs pins the unix listener's addressing: a known
// peer's datagram in — its source read into the reactor's sockaddr
// storage and looked up by its path in place — and the reply out to a
// sockaddr built in the listener's send state cost no allocation. The
// net package's ReadFrom and WriteTo made four objects a datagram between
// them. It mirrors TestReactorRecvAllocs, with the reply added.
func TestUnixReactorAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if !batchRecvSupported {
		t.Skip("the portable build addresses unix peers through the net package")
	}
	cli, srv := unixPair(t, filepath.Join(t.TempDir(), "srv.sock"))
	ctx := context.Background()
	cb, sb := cli.(core.BufConn), srv.(core.BufConn)
	payload := make([]byte, 64)
	roundTrip := func() {
		if err := cli.Send(ctx, payload); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		b, err := sb.RecvBuf(ctx)
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		if err := sb.SendBuf(ctx, b); err != nil {
			t.Errorf("reply: %v", err)
			return
		}
		if b, err = cb.RecvBuf(ctx); err != nil {
			t.Errorf("client recv: %v", err)
			return
		}
		b.Release()
	}
	for i := 0; i < 32; i++ { // warm the pools and the send state
		roundTrip()
	}
	avg := testing.AllocsPerRun(100, roundTrip)
	if t.Failed() {
		t.FailNow()
	}
	if avg >= 1 {
		t.Fatalf("unix listener receive+reply allocates %.2f objects/op, want 0", avg)
	}
}

// TestUnixReactorPeerAddr: the server side of a unix connection is
// addressed by the client's socket path, as the client names it.
func TestUnixReactorPeerAddr(t *testing.T) {
	cli, srv := unixPair(t, filepath.Join(t.TempDir(), "srv.sock"))
	if got, want := srv.RemoteAddr().Addr, cli.LocalAddr().Addr; got != want {
		t.Fatalf("server's peer address %q, want the client's socket %q", got, want)
	}
}

// TestDialUnixLongListenerPath dials a listener whose path takes all of
// sun_path. The client's socket lives in the same directory under a
// short name of its own, so it fits wherever the directory leaves room
// for that name, however long the listener's name is; one byte more of
// directory and DialUnix refuses, naming the limit. A client name that
// repeated the listener's, as one did, overflowed sun_path for any
// listener path beyond about 80 bytes.
func TestDialUnixLongListenerPath(t *testing.T) {
	base := t.TempDir()
	dirLen := maxUnixPath - 1 - clientSockName // the longest that takes the client's name
	if len(base)+2 > dirLen {
		t.Skipf("temporary directory %q leaves no room to build a %d-byte directory", base, dirLen)
	}
	mkdir := func(n int) string {
		dir := filepath.Join(base, strings.Repeat("d", n-len(base)-1))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	dir := mkdir(dirLen)
	path := filepath.Join(dir, strings.Repeat("s", maxUnixPath-len(dir)-1))
	if len(path) != maxUnixPath {
		t.Fatalf("built a %d-byte listener path, want %d", len(path), maxUnixPath)
	}
	cli, srv := unixPair(t, path)
	ctx := ctxT(t)
	if err := srv.Send(ctx, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	if m, err := cli.Recv(ctx); err != nil || string(m) != "reply" {
		t.Fatalf("client recv = %q, %v", m, err)
	}
	local := cli.LocalAddr().Addr
	if filepath.Dir(local) != dir || strings.Contains(filepath.Base(local), "sss") {
		t.Errorf("client socket %q: want a short name of its own in %q", local, dir)
	}

	longer := mkdir(dirLen + 1)
	_, err := DialUnix("h", filepath.Join(longer, "s"))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxUnixPath)) {
		t.Fatalf("dial from a %d-byte directory = %v, want an error naming the %d-byte limit", len(longer), err, maxUnixPath)
	}
}
