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
// sun_path. It dials the bare path, which names no network namespace,
// so it covers the client that binds a socket file: that socket lives in
// the same directory under a short name of its own, so it fits wherever the directory leaves room
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

// TestDialUnixSameNamespaceNoFile: a client dialing a listener's Addr in
// the listener's own network namespace binds an abstract name, so from
// the dial through an echo to the close the listener's directory holds
// the listener's socket alone. A client that bound a file beside the
// listener paid a bind and an unlink on the filesystem per connection.
// The server keys the client by the name it bound, and the client's
// remote address is the listener's, as the listener advertises it.
func TestDialUnixSameNamespaceNoFile(t *testing.T) {
	if _, err := os.Readlink("/proc/self/ns/net"); err != nil {
		t.Skipf("no network namespace identity to advertise: %v", err)
	}
	dir := t.TempDir()
	l, err := ListenUnix("h", filepath.Join(dir, "srv.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	onlyListener := func(when string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		if len(names) != 1 || names[0] != "srv.sock" {
			t.Errorf("%s, the listener's directory holds %q, want the listener's socket alone", when, names)
		}
	}
	ctx := ctxT(t)
	cli, err := DialUnix("h", l.Addr().Addr)
	if err != nil {
		t.Fatal(err)
	}
	onlyListener("after the dial")
	if err := cli.Send(ctx, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := srv.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Send(ctx, m); err != nil {
		t.Fatal(err)
	}
	if m, err := cli.Recv(ctx); err != nil || string(m) != "ping" {
		t.Fatalf("echo = %q, %v", m, err)
	}
	onlyListener("after an echo")
	if got, want := srv.RemoteAddr().Addr, cli.LocalAddr().Addr; got != want {
		t.Errorf("server's peer address %q, want the client's name %q", got, want)
	}
	if got, want := cli.RemoteAddr(), l.Addr(); got != want {
		t.Errorf("client's remote address %v, want the listener's %v", got, want)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	onlyListener("after the close")
}

// TestListenUnixLeavesOtherFiles: a listener replaces a socket an
// earlier run left at its path, and nothing else. A regular file or a
// directory there fails the listen, named in the error, and is left as
// it was.
func TestListenUnixLeavesOtherFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "stale.sock")
	l, err := ListenUnix("h", stale)
	if err != nil {
		t.Fatal(err)
	}
	// Closing the socket without the listener leaves its file behind.
	l.(*unixListener).reactorListener.Close()
	if l, err = ListenUnix("h", stale); err != nil {
		t.Fatalf("listen over a stale socket: %v", err)
	}
	l.Close()

	file := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(file, []byte("keep me"), 0o600); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{file, sub} {
		l, err := ListenUnix("h", path)
		if err == nil {
			l.Close()
			t.Fatalf("listen at %q succeeded, want it refused", path)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("listen at %q: error %q does not name the path", path, err)
		}
	}
	if b, err := os.ReadFile(file); err != nil || string(b) != "keep me" {
		t.Errorf("the regular file holds %q, %v after the refused listen, want it untouched", b, err)
	}
	if fi, err := os.Stat(sub); err != nil || !fi.IsDir() {
		t.Errorf("the directory is gone after the refused listen: %v", err)
	}
}
