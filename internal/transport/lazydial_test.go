package transport

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/testutil"
)

// silentPeer binds a UDP socket that never reads, for a dialed connection
// to point at: its datagrams queue there, and no ICMP refusal comes back
// to fail a receive.
func silentPeer(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc.LocalAddr().String()
}

// openFiles lists what the process's file descriptors refer to (a
// socket reads "socket:[inode]"), or nil where /proc/self/fd is not
// there to read. Keyed by what they refer to rather than by number, a
// new socket is told apart from one that took the number of a file
// another part of the process closed meanwhile.
func openFiles() map[string]bool {
	if runtime.GOOS != "linux" {
		return nil
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	files := make(map[string]bool, len(ents))
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil {
			files[target] = true
		}
	}
	return files
}

// newFiles counts the files open in after that were not in before.
func newFiles(before, after map[string]bool) int {
	n := 0
	for f := range after {
		if !before[f] {
			n++
		}
	}
	return n
}

// TestDialUDPClosedUnusedOpensNothing: a connection closed before its
// first use never had a socket, and will not open one: every later send
// and receive fails with core.ErrClosed.
func TestDialUDPClosedUnusedOpensNothing(t *testing.T) {
	ctx := ctxT(t)
	addr := silentPeer(t)
	before := openFiles()
	c, err := DialUDP("cli", addr)
	if err != nil {
		t.Fatal(err)
	}
	if n := newFiles(before, openFiles()); n != 0 {
		t.Errorf("%d new files open after the dial, want none", n)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Send(ctx, []byte("x")); !errors.Is(err, core.ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Recv(ctx); !errors.Is(err, core.ErrClosed) {
		t.Errorf("Recv after Close = %v, want ErrClosed", err)
	}
	bs, _ := mkSizes(8, 8)
	if err := core.SendBufs(ctx, c.(core.BufConn), bs); !errors.Is(err, core.ErrClosed) {
		t.Errorf("SendBufs after Close = %v, want ErrClosed", err)
	}
	if s := c.(*socketConn); s.opened.Load() || s.socketIO != nil {
		t.Error("a connection closed unused opened its socket")
	}
	if n := newFiles(before, openFiles()); n != 0 {
		t.Errorf("%d new files open after Close and the calls after it, want none", n)
	}
}

// TestDialUDPLocalAddrOpens: LocalAddr opens the socket to report the
// port the kernel bound, and that is the address the peer sees.
func TestDialUDPLocalAddrOpens(t *testing.T) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	c, err := DialUDP("cli", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	la := c.LocalAddr()
	if la.Net != "udp" || la.Host != "cli" {
		t.Errorf("local address %v, want udp on host cli", la)
	}
	_, port, err := net.SplitHostPort(la.Addr)
	if err != nil || port == "0" {
		t.Fatalf("local address %q (%v), want a bound port", la.Addr, err)
	}
	if s := c.(*socketConn); !s.opened.Load() {
		t.Fatal("LocalAddr did not open the socket")
	}
	if err := c.Send(ctxT(t), []byte("hi")); err != nil {
		t.Fatal(err)
	}
	pc.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, from, err := pc.ReadFrom(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if from.String() != la.Addr {
		t.Errorf("the peer sees the client as %s, LocalAddr says %s", from, la.Addr)
	}
}

// TestDialUDPOpenErrorOnFirstUse: a socket that cannot be made fails the
// first call that needs it, and every one after, with the dial's error;
// DialUDP itself succeeds.
func TestDialUDPOpenErrorOnFirstUse(t *testing.T) {
	c, err := DialUDP("cli", "[fe80::1]:9") // a link-local address names no interface
	if err != nil {
		t.Fatalf("DialUDP = %v, want the error at first use", err)
	}
	defer c.Close()
	ctx := ctxT(t)
	first := c.Send(ctx, []byte("x"))
	if first == nil || errors.Is(first, core.ErrClosed) {
		t.Fatalf("first Send = %v, want the dial's error", first)
	}
	if _, err := c.Recv(ctx); err != first {
		t.Errorf("Recv after a failed open = %v, want the first call's %v", err, first)
	}
	if la := c.LocalAddr(); la.Addr != "" {
		t.Errorf("local address %q with no socket, want none", la.Addr)
	}
}

// TestDialUDPConcurrentFirstUse races a connection's first Send, first
// Recv and Close: at most one socket opens, Close leaves none behind,
// and the receive ends with ErrClosed. Run it under -race.
func TestDialUDPConcurrentFirstUse(t *testing.T) {
	addr := silentPeer(t)
	before := openFiles()
	for i := 0; i < 200; i++ {
		c, err := DialUDP("cli", addr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var wg sync.WaitGroup
		errs := make([]error, 3)
		wg.Add(3)
		go func() { defer wg.Done(); errs[0] = c.Send(ctx, []byte("x")) }()
		go func() { defer wg.Done(); _, errs[1] = c.Recv(ctx) }()
		go func() { defer wg.Done(); errs[2] = c.Close() }()
		wg.Wait()
		cancel()
		if errs[0] != nil && !errors.Is(errs[0], core.ErrClosed) {
			t.Fatalf("round %d: Send = %v, want nil or ErrClosed", i, errs[0])
		}
		if !errors.Is(errs[1], core.ErrClosed) {
			t.Fatalf("round %d: Recv = %v, want ErrClosed", i, errs[1])
		}
		if errs[2] != nil {
			t.Fatalf("round %d: Close = %v", i, errs[2])
		}
		if n := newFiles(before, openFiles()); n != 0 {
			t.Fatalf("round %d: %d new files open after Close, want none", i, n)
		}
	}
}

// TestDialUDPUnusedAllocs gates what a dial that is closed unused costs:
// the small connection struct and nothing a socket needs. Opening at the
// dial made the socket, its net.Conn and addresses, and some 14 KB of
// batch scratch and read-ahead queue.
func TestDialUDPUnusedAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const addr = "127.0.0.1:9"
	dialClose := func() {
		c, err := DialUDP("cli", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	const maxObjects, maxBytes = 4, 1024
	avg := testing.AllocsPerRun(1000, dialClose)
	if avg > maxObjects {
		t.Errorf("an unused DialUDP and Close allocate %.1f objects, budget is %d", avg, maxObjects)
	}
	const runs = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		dialClose()
	}
	runtime.ReadMemStats(&m1)
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if bytes >= maxBytes {
		t.Errorf("an unused DialUDP and Close allocate %d bytes, budget is under %d", bytes, maxBytes)
	}
	t.Logf("an unused DialUDP and Close: %.1f objects, %d bytes", avg, bytes)
}
