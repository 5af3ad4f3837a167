//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// rawFD adapts a plain file descriptor to syscall.RawConn for driving
// the mmsg callbacks directly in tests. Blocking sockets never return
// EAGAIN, so the retry loops cannot spin.
type rawFD uintptr

func (r rawFD) Control(f func(fd uintptr)) error { f(uintptr(r)); return nil }

func (r rawFD) Read(f func(fd uintptr) bool) error {
	for !f(uintptr(r)) {
	}
	return nil
}

func (r rawFD) Write(f func(fd uintptr) bool) error {
	for !f(uintptr(r)) {
	}
	return nil
}

func mkUniform(n, size int) []*wire.Buf {
	bs := make([]*wire.Buf, n)
	for i := range bs {
		bs[i] = wire.NewBuf(0, size)
		p := bs[i].Bytes()
		for j := range p {
			p[j] = byte(i)
		}
	}
	return bs
}

// TestGSOEligibleSegmentCap pins the MTU guard: uniform bursts above
// gsoMaxSeg must not take the GSO path, because the kernel rejects a
// gso_size exceeding the path MTU with EINVAL where sendmmsg would have
// delivered via IP fragmentation.
func TestGSOEligibleSegmentCap(t *testing.T) {
	cases := []struct {
		n, size int
		ok      bool
	}{
		{2, gsoMaxSeg, true},
		{2, gsoMaxSeg + 1, false},
		{8, 128, true},
		{1, 128, false}, // single message: nothing to coalesce
		{2, 0, false},
	}
	for _, tc := range cases {
		bs := mkUniform(tc.n, tc.size)
		seg, ok := gsoEligible(bs)
		if ok != tc.ok {
			t.Errorf("gsoEligible(%d x %d bytes) = %v, want %v", tc.n, tc.size, ok, tc.ok)
		}
		if ok && seg != tc.size {
			t.Errorf("gsoEligible(%d x %d bytes) seg = %d, want %d", tc.n, tc.size, seg, tc.size)
		}
		core.ReleaseAll(bs)
	}
}

// rejectingConn builds a socketConn over a datagram socketpair whose
// GSO sendmsg path is forced to fail with errno (the injection seam —
// loopback's 64k MTU cannot produce the path-MTU EINVAL organically).
// The restore function must be deferred; reads come from the returned
// peer fd. sendmmsg/recvmmsg remain real syscalls.
func rejectingConn(t *testing.T, errno syscall.Errno) (s *socketConn, peer int, restore func()) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM, 0)
	if err != nil {
		t.Fatalf("socketpair: %v", err)
	}
	t.Cleanup(func() { syscall.Close(fds[0]); syscall.Close(fds[1]) })

	s = &socketConn{tel: countersFor("udp"), socketIO: &socketIO{}}
	m := &s.sendmm
	m.tried = true // skip initRaw: drive the callbacks over the raw fd
	m.raw = rawFD(fds[0])
	m.fn = m.sendChunks
	m.gsoFn = m.sendGSO

	prev := sendmsg
	sendmsg = func(fd, msg uintptr) syscall.Errno { return errno }
	return s, fds[1], func() { sendmsg = prev }
}

// TestGSOMidBurstRejectFallsBack reproduces an EINVAL-class UDP_SEGMENT
// rejection after the probe has latched gsoYes (in production: a path
// MTU smaller than the segment size). The burst must fall back to
// sendmmsg and deliver everything, not fail, and the latched state must
// survive — a transient rejection is not a capability verdict.
func TestGSOMidBurstRejectFallsBack(t *testing.T) {
	s, peer, restore := rejectingConn(t, syscall.EINVAL)
	defer restore()
	s.sendmm.gso = gsoYes // as if an earlier burst's probe succeeded

	const n, size = 4, 256
	bs := mkUniform(n, size) // uniform and small: GSO-eligible
	sent, err := s.writeBurst(bs)
	if err != nil {
		t.Fatalf("writeBurst after UDP_SEGMENT rejection = %v, want sendmmsg fallback", err)
	}
	if sent != n {
		t.Fatalf("sent = %d, want %d", sent, n)
	}
	if s.sendmm.gso != gsoYes {
		t.Errorf("gso state = %d after transient rejection, want gsoYes (%d)", s.sendmm.gso, gsoYes)
	}
	core.ReleaseAll(bs)

	buf := make([]byte, size+1)
	for i := 0; i < n; i++ {
		k, err := syscall.Read(peer, buf)
		if err != nil {
			t.Fatalf("read datagram %d: %v", i, err)
		}
		if k != size || buf[0] != byte(i) {
			t.Fatalf("datagram %d: %d bytes first=%#x, want %d bytes first=%#x", i, k, buf[0], size, byte(i))
		}
	}
}

// TestGSOProbeFailureReplaysBurst drives the unprobed path into the
// same rejection: the first eligible burst latches gsoNo and the whole
// burst still goes out via sendmmsg.
func TestGSOProbeFailureReplaysBurst(t *testing.T) {
	s, peer, restore := rejectingConn(t, syscall.EOPNOTSUPP)
	defer restore()

	const n, size = 3, 64
	bs := mkUniform(n, size)
	sent, err := s.writeBurst(bs)
	if err != nil {
		t.Fatalf("writeBurst on non-GSO socket = %v, want sendmmsg replay", err)
	}
	if sent != n {
		t.Fatalf("sent = %d, want %d", sent, n)
	}
	if s.sendmm.gso != gsoNo {
		t.Errorf("gso state = %d after probe failure, want gsoNo (%d)", s.sendmm.gso, gsoNo)
	}
	core.ReleaseAll(bs)

	buf := make([]byte, size+1)
	for i := 0; i < n; i++ {
		if _, err := syscall.Read(peer, buf); err != nil {
			t.Fatalf("read datagram %d: %v", i, err)
		}
	}
}

// TestUnixgramBurstSkipsGSO checks the transport guard: unixgram
// sockets never attempt the UDP-only UDP_SEGMENT probe — the state is
// latched gsoNo at init and eligible bursts ride plain sendmmsg.
func TestUnixgramBurstSkipsGSO(t *testing.T) {
	ctx := ctxT(t)
	path := filepath.Join(t.TempDir(), "srv.sock")
	l, err := ListenUnix("h", path)
	if err != nil {
		t.Fatalf("listen unix: %v", err)
	}
	defer l.Close()
	cli, err := DialUnix("h", path)
	if err != nil {
		t.Fatalf("dial unix: %v", err)
	}
	defer cli.Close()

	const n, size = 4, 64
	if err := core.SendBufs(ctx, cli, mkUniform(n, size)); err != nil {
		t.Fatalf("SendBufs: %v", err)
	}
	srv, err := l.Accept(ctx)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	for _, g := range recvN(ctx, t, srv, n) {
		if g.Len() != size {
			t.Errorf("received %d bytes, want %d", g.Len(), size)
		}
		g.Release()
	}
	if gso := cli.(*unixConn).sendmm.gso; gso != gsoNo {
		t.Errorf("unixgram gso state = %d, want gsoNo (%d)", gso, gsoNo)
	}
}

// TestGSOEligibleShortTail pins the eligibility rule for the burst shape
// a fragmented message has: uniform segments plus one final segment that
// may run short — and nothing looser.
func TestGSOEligibleShortTail(t *testing.T) {
	cases := []struct {
		sizes []int
		ok    bool
	}{
		{[]int{1209, 1209, 1209, 500}, true}, // fragments + tail
		{[]int{1209, 1}, true},               // shortest possible tail
		{[]int{1209, 500, 1209}, false},      // short element not last
		{[]int{500, 1209}, false},            // tail longer than the segment
		{[]int{1209, 1209, 0}, false},        // empty tail: not a datagram GSO can cut
		{[]int{gsoMaxSeg + 1, 100}, false},   // segment above the MTU guard
		{[]int{gsoMaxSeg, gsoMaxSeg - 1}, true},
	}
	for _, tc := range cases {
		bs, _ := mkSizes(tc.sizes...)
		seg, ok := gsoEligible(bs)
		if ok != tc.ok || (ok && seg != tc.sizes[0]) {
			t.Errorf("gsoEligible(%v) = %d, %v; want ok=%v seg=%d", tc.sizes, seg, ok, tc.ok, tc.sizes[0])
		}
		core.ReleaseAll(bs)
	}
}

// TestGSOShortTailRoundTrip sends fragment-shaped bursts through a real
// socket pair: every datagram arrives byte-exact with its boundaries,
// the short tail included, and the syscall counters show what the burst
// cost — one sendmsg per ≤52-segment chunk against one datagram count
// per message.
func TestGSOShortTailRoundTrip(t *testing.T) {
	ctx := ctxT(t)
	a, b := udpPairT(t)
	sent, calls := counterValue("transport/udp/datagrams_sent"), counterValue("transport/udp/send_syscalls")
	for _, tc := range []struct{ n, wantCalls int }{{2, 1}, {14, 1}, {65, 2}} {
		bs, want := mkSizes(fragmentSizes(tc.n, 1209, 77)...)
		if err := core.SendBufs(ctx, a, bs); err != nil {
			t.Fatalf("SendBufs(%d): %v", tc.n, err)
		}
		if gso := a.(*socketConn).sendmm.gso; gso != gsoYes {
			t.Skipf("kernel without UDP_SEGMENT (gso state %d)", gso)
		}
		for i, g := range recvN(ctx, t, b, tc.n) {
			if !bytes.Equal(g.Bytes(), want[i]) {
				t.Errorf("burst of %d, datagram %d: %d bytes, want %d (content or boundary wrong)", tc.n, i, g.Len(), len(want[i]))
			}
			g.Release()
		}
		dSent, dCalls := counterValue("transport/udp/datagrams_sent")-sent, counterValue("transport/udp/send_syscalls")-calls
		if dSent != uint64(tc.n) || dCalls != uint64(tc.wantCalls) {
			t.Errorf("burst of %d: datagrams_sent +%d, send_syscalls +%d; want +%d, +%d", tc.n, dSent, dCalls, tc.n, tc.wantCalls)
		}
		sent, calls = sent+dSent, calls+dCalls
	}
}

// TestShortNonFinalRoutesToSendmmsg: a short element anywhere but the
// end cannot be expressed as a segment size, so the burst rides sendmmsg
// — delivered intact in one call, the GSO probe never fired.
func TestShortNonFinalRoutesToSendmmsg(t *testing.T) {
	ctx := ctxT(t)
	a, b := udpPairT(t)
	calls := counterValue("transport/udp/send_syscalls")
	bs, want := mkSizes(1209, 300, 1209)
	if err := core.SendBufs(ctx, a, bs); err != nil {
		t.Fatalf("SendBufs: %v", err)
	}
	for i, g := range recvN(ctx, t, b, len(want)) {
		if !bytes.Equal(g.Bytes(), want[i]) {
			t.Errorf("datagram %d: %d bytes, want %d", i, g.Len(), len(want[i]))
		}
		g.Release()
	}
	if gso := a.(*socketConn).sendmm.gso; gso != gsoUnknown {
		t.Errorf("gso state = %d, want unprobed (%d): the burst must not have tried UDP_SEGMENT", gso, gsoUnknown)
	}
	if d := counterValue("transport/udp/send_syscalls") - calls; d != 1 {
		t.Errorf("send_syscalls +%d, want 1 sendmmsg", d)
	}
}

// TestGSORejectReplaysShortTailBurst drives a fragment-shaped burst into
// the injected EINVAL: the whole burst, tail included, is replayed
// through sendmmsg byte-exact, and the degrade is counted.
func TestGSORejectReplaysShortTailBurst(t *testing.T) {
	s, peer, restore := rejectingConn(t, syscall.EINVAL)
	defer restore()
	s.sendmm.gso = gsoYes
	fallbacks := counterValue("transport/udp/gso_fallbacks")

	bs, want := mkSizes(fragmentSizes(5, 256, 9)...)
	sent, err := s.writeBurst(bs)
	if err != nil || sent != len(want) {
		t.Fatalf("writeBurst = %d, %v; want %d sent through the sendmmsg replay", sent, err, len(want))
	}
	core.ReleaseAll(bs)
	buf := make([]byte, 512)
	for i := range want {
		k, err := syscall.Read(peer, buf)
		if err != nil || !bytes.Equal(buf[:k], want[i]) {
			t.Fatalf("datagram %d: %d bytes (%v), want %d", i, k, err, len(want[i]))
		}
	}
	if d := counterValue("transport/udp/gso_fallbacks") - fallbacks; d != 1 {
		t.Errorf("gso_fallbacks +%d, want 1", d)
	}
}

// TestSocketCloseReleasesRecvScratch is the conservation check on the
// burst-receive scratch: RecvBufs with more than one slot leaves pooled
// buffers parked in the connection for the next call, and Close must
// hand them back.
func TestSocketCloseReleasesRecvScratch(t *testing.T) {
	ctx := ctxT(t)
	baseline := wire.BufsOutstanding()
	a, b, err := UDPPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	bs, _ := mkSizes(64, 64, 64)
	if err := core.SendBufs(ctx, a, bs); err != nil {
		t.Fatal(err)
	}
	// More slots than datagrams: the unfilled ones stay parked in b.
	into := make([]*wire.Buf, 8)
	for got := 0; got < 3; {
		n, err := core.RecvBufs(ctx, b, into)
		if err != nil {
			t.Fatal(err)
		}
		core.ReleaseAll(into[:n])
		got += n
	}
	if held := wire.BufsOutstanding() - baseline; held == 0 {
		t.Fatal("RecvBufs retained no scratch buffers: the test no longer exercises the leak")
	}
	a.Close()
	b.Close()
	if got := wire.BufsOutstanding(); got != baseline {
		t.Fatalf("%d pooled buffers outstanding after Close, want the baseline %d", got, baseline)
	}
}
