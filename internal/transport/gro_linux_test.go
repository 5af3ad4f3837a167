//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"syscall"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/wire"
)

// groModes runs f with UDP_GRO as the kernel grants it and as a kernel
// that refuses it (before 5.0) leaves it: off, every train cut up by the
// kernel and today's one-datagram-per-buffer receive. f creates its
// sockets itself: a reactor listener takes the option when it starts, a
// dialed socket when it first receives (see ping).
func groModes(t *testing.T, f func(t *testing.T, gro bool)) {
	for _, gro := range []bool{true, false} {
		name := "gro"
		if !gro {
			name = "refused"
		}
		t.Run(name, func(t *testing.T) {
			if !gro {
				saved := setGRO
				setGRO = func(uintptr) error { return syscall.ENOPROTOOPT }
				t.Cleanup(func() { setGRO = saved })
			}
			f(t, gro)
		})
	}
}

// groShapes are fragment-shaped bursts, as framing sends them: 2, 14 and
// 65 uniform 1209-byte datagrams, and 14 with a short last one. The
// sender caps a GSO train at gsoMaxBytes, so 65 goes out as two trains.
var groShapes = []struct {
	n, tail, trains int
}{{2, 1209, 1}, {14, 1209, 1}, {65, 1209, 2}, {14, 33, 1}}

// checkTrainCounters compares the receive counters' movement since
// trains0/calls0 with one receive per train: with GRO on, every train
// counted and no more receives than trains; refused, no train at all.
func checkTrainCounters(t *testing.T, gro bool, trains, trains0, calls0 uint64) {
	t.Helper()
	dTrains := counterValue("transport/udp/gro_trains") - trains0
	dCalls := counterValue("transport/udp/recv_syscalls") - calls0
	if !gro {
		if dTrains != 0 {
			t.Errorf("gro_trains +%d with UDP_GRO refused, want 0", dTrains)
		}
		return
	}
	if dTrains != trains || dCalls < 1 || dCalls > trains {
		t.Errorf("gro_trains +%d, recv_syscalls +%d; want +%d and one receive per train at most",
			dTrains, dCalls, trains)
	}
}

// ping sends one datagram from one end to the other and checks it
// arrives. A dialed socket turns UDP_GRO on in its first receive; a train
// already waiting then was cut up by the kernel on arrival.
func ping(ctx context.Context, t *testing.T, from, to core.Conn) {
	t.Helper()
	if err := from.Send(ctx, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if m, err := to.Recv(ctx); err != nil || string(m) != "ping" {
		t.Fatalf("ping = %q, %v", m, err)
	}
}

// checkDatagrams compares got with want, byte for byte and in order, and
// releases got.
func checkDatagrams(t *testing.T, got []*wire.Buf, want [][]byte) {
	t.Helper()
	for i, g := range got {
		if !bytes.Equal(g.Bytes(), want[i]) {
			t.Errorf("datagram %d of %d: %d bytes, want %d (content, boundary or order wrong)",
				i, len(want), g.Len(), len(want[i]))
		}
		g.Release()
	}
}

// checkHeld is checkDatagrams for a dialed socket's receive, and checks
// how many backing arrays the datagrams held: with GRO on, one per
// train, its datagrams being views of the train's receive buffer;
// refused, one per datagram.
func checkHeld(t *testing.T, gro bool, trains int, got []*wire.Buf, want [][]byte) {
	t.Helper()
	held := backings(got)
	checkDatagrams(t, got, want)
	n := len(got)
	if gro {
		n = trains
	}
	if held != n {
		t.Errorf("%d datagrams held %d backing arrays, want %d", len(got), held, n)
	}
}

// backings counts the distinct backing arrays bs hold: the views one
// Slab lent share its backing, and any other Buf has its own. It reads
// the Bufs themselves. The process-wide wire.BufsOutstanding, read
// before and after their release, also moves with what other goroutines
// take from the pools or give back meanwhile, such as a listener's
// reactor refilling its receive scratch.
func backings(bs []*wire.Buf) int {
	seen := make(map[uintptr]bool, len(bs))
	for _, b := range bs {
		v := reflect.ValueOf(b)
		k := v.Elem().FieldByName("slab").Pointer()
		if k == 0 {
			k = v.Pointer()
		}
		seen[k] = true
	}
	return len(seen)
}

// TestGROReceive sends every shape as GSO trains into each receive path:
// the reactor listener's, a dialed socket's burst receive (RecvBufs) and
// its single receive (RecvBuf on a socket that does not read ahead). Each
// arrives as as many datagrams as were sent, byte-exact and in order, and
// with UDP_GRO on one receive takes each train. At a dialed socket, a
// train's datagrams hold one backing array, not one each (that the last
// release gives it back is TestSlabViews' and TestSlabConcurrentRelease's
// to check, in ./internal/wire).
func TestGROReceive(t *testing.T) {
	groModes(t, func(t *testing.T, gro bool) {
		ctx := ctxT(t)
		l, err := ListenUDP("srv", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		// One reactor goroutine: two take turns on the socket and can
		// swap back-to-back datagrams, or trains, of one peer (DESIGN
		// §12). A train's own datagrams stay in order whatever the shard
		// count.
		if err := l.(core.ReactorConfigurer).ConfigureReactor(core.ReactorConfig{Shards: 1}); err != nil {
			t.Fatal(err)
		}
		dial := func() (core.Conn, core.Conn) {
			cli, err := DialUDP("cli", l.Addr().Addr)
			if err != nil {
				t.Fatal(err)
			}
			sc := acceptPeer(ctx, t, l, cli)
			ping(ctx, t, sc, cli)
			return cli, sc
		}
		cli, sc := dial()
		defer cli.Close()
		defer sc.Close()
		for _, sh := range groShapes {
			sizes := fragmentSizes(sh.n, 1209, sh.tail)

			t.Run("reactor", func(t *testing.T) {
				trains, calls := counterValue("transport/udp/gro_trains"), counterValue("transport/udp/recv_syscalls")
				bs, want := mkSizes(sizes...)
				if err := core.SendBufs(ctx, cli, bs); err != nil {
					t.Fatal(err)
				}
				got := make([]*wire.Buf, sh.n)
				for i := range got {
					if got[i], err = sc.(core.BufConn).RecvBuf(ctx); err != nil {
						t.Fatalf("datagram %d of %d: %v", i, sh.n, err)
					}
				}
				checkDatagrams(t, got, want)
				checkTrainCounters(t, gro, uint64(sh.trains), trains, calls)
			})

			t.Run("burst", func(t *testing.T) {
				trains, calls := counterValue("transport/udp/gro_trains"), counterValue("transport/udp/recv_syscalls")
				bs, want := mkSizes(sizes...)
				if err := core.SendBufs(ctx, sc, bs); err != nil {
					t.Fatal(err)
				}
				checkHeld(t, gro, sh.trains, recvN(ctx, t, cli, sh.n), want)
				checkTrainCounters(t, gro, uint64(sh.trains), trains, calls)
			})

			t.Run("single", func(t *testing.T) {
				// A ping-pong socket: its receive reads one datagram, or
				// one train, with recvmsg.
				cli.(*socketConn).rq.ahead = false
				bc := cli.(core.BufConn)
				trains, calls := counterValue("transport/udp/gro_trains"), counterValue("transport/udp/recv_syscalls")
				bs, want := mkSizes(sizes...)
				if err := core.SendBufs(ctx, sc, bs); err != nil {
					t.Fatal(err)
				}
				got := make([]*wire.Buf, sh.n)
				for i := range got {
					if got[i], err = bc.RecvBuf(ctx); err != nil {
						t.Fatalf("datagram %d of %d: %v", i, sh.n, err)
					}
				}
				checkHeld(t, gro, sh.trains, got, want)
				checkTrainCounters(t, gro, uint64(sh.trains), trains, calls)
				ping(ctx, t, cli, sc)
				ping(ctx, t, sc, cli)
			})
		}
	})
}

// sendRawTrain sends p from the connected socket c as one GSO sendmsg of
// seg-byte segments, past the transport's own gsoMaxBytes cap.
func sendRawTrain(t *testing.T, c *net.UDPConn, p []byte, seg int) {
	t.Helper()
	oob := make([]byte, cmsgSpace)
	binary.NativeEndian.PutUint64(oob, cmsgSegLen)
	binary.NativeEndian.PutUint32(oob[8:], solUDP)
	binary.NativeEndian.PutUint32(oob[12:], udpSegment)
	binary.NativeEndian.PutUint16(oob[16:], uint16(seg))
	if _, _, err := c.WriteMsgUDP(p, oob, nil); err != nil {
		t.Skipf("kernel refused a %d-byte GSO train: %v", len(p), err)
	}
}

// TestGROTruncatedTrain sends a train longer than a receive slot holds —
// 65 480 bytes of 1100-byte segments, which loopback delivers whole but
// the transport's sender never sends as one — to the reactor listener
// and to a connected socket. With UDP_GRO on the slot keeps the first 59
// segments, which arrive, and the cut-off 60th is dropped and counted as
// malformed, never handed up short; refused, the kernel cuts the train
// into its 60 datagrams, which all arrive. Either way the next datagram
// arrives.
func TestGROTruncatedTrain(t *testing.T) {
	const seg, total = 1100, 65480
	train := make([]byte, total)
	for i := range train {
		train[i] = byte(i / seg)
	}
	groModes(t, func(t *testing.T, gro bool) {
		ctx := ctxT(t)
		l, err := ListenUDP("srv", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		cli, err := DialUDP("cli", l.Addr().Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		sc := acceptPeer(ctx, t, l, cli)
		defer sc.Close()
		a, b := udpPairT(t)
		ping(ctx, t, a, b)

		arrive, lost := (total+seg-1)/seg, uint64(0)
		if gro {
			arrive, lost = recvSlot/seg, 1
		}
		for _, tc := range []struct {
			name     string
			from, to core.Conn
		}{{"reactor", cli, sc}, {"socket", a, b}} {
			t.Run(tc.name, func(t *testing.T) {
				malformed := counterValue("transport/udp/datagrams_dropped_malformed")
				sendRawTrain(t, tc.from.(*socketConn).conn.(*net.UDPConn), train, seg)
				for i := 0; i < arrive; i++ {
					d, err := tc.to.(core.BufConn).RecvBuf(ctx)
					if err != nil {
						t.Fatalf("datagram %d: %v", i, err)
					}
					if want := min(seg, total-i*seg); d.Len() != want || d.Bytes()[0] != byte(i) {
						t.Errorf("datagram %d: %d bytes starting %d, want %d starting %d",
							i, d.Len(), d.Bytes()[0], want, byte(i))
					}
					d.Release()
				}
				if err := tc.from.Send(ctx, []byte("after")); err != nil {
					t.Fatal(err)
				}
				if m, err := tc.to.Recv(ctx); err != nil || string(m) != "after" {
					t.Fatalf("datagram after the truncated train = %q, %v", m, err)
				}
				if d := counterValue("transport/udp/datagrams_dropped_malformed") - malformed; d != lost {
					t.Errorf("datagrams_dropped_malformed +%d, want +%d", d, lost)
				}
			})
		}
	})
}

// TestGROTrainAllocs gates the offload's receive path at a known peer: a
// 14-datagram train sent to the reactor listener, cut up and received,
// allocates nothing — the datagrams are views of the train's receive
// buffer, lent from a pooled slab. Also when UDP_GRO is refused.
func TestGROTrainAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	groModes(t, func(t *testing.T, gro bool) {
		ctx := context.Background()
		l, err := ListenUDP("srv", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		cli, err := DialUDP("cli", l.Addr().Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		sc := acceptPeer(ctxT(t), t, l, cli)
		defer sc.Close()
		bc := sc.(core.BufConn)
		sizes := fragmentSizes(14, 1209, 33)
		var bs [14]*wire.Buf
		train := func() {
			for i, n := range sizes {
				bs[i] = wire.NewBuf(0, n)
			}
			if err := core.SendBufs(ctx, cli, bs[:]); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			for range sizes {
				b, err := bc.RecvBuf(ctx)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				b.Release()
			}
		}
		for i := 0; i < 8; i++ {
			train() // warm the pools, the split scratch and the counters
		}
		trains := counterValue("transport/udp/gro_trains")
		avg := testing.AllocsPerRun(50, train)
		if t.Failed() {
			t.FailNow()
		}
		if avg >= 1 {
			t.Fatalf("a 14-datagram train in and out allocates %.2f objects, want 0", avg)
		}
		if d := counterValue("transport/udp/gro_trains") - trains; gro && d < 50 {
			t.Errorf("gro_trains +%d over 51 trains: the measured path did not take trains", d)
		}
	})
}

// groCmsg is the control message a receive of seg-byte segments carries.
func groCmsg(seg int32) []byte {
	c := make([]byte, cmsgSpace)
	binary.NativeEndian.PutUint64(c, cmsgHdrLen+4)
	binary.NativeEndian.PutUint32(c[8:], solUDP)
	binary.NativeEndian.PutUint32(c[12:], udpGRO)
	binary.NativeEndian.PutUint32(c[16:], uint32(seg))
	return c
}

// writeEach writes into each of the datagrams in turn, as the layers
// above do — over its front (TrimFront then Prepend) and past its end
// (Extend) — checks that the others are unchanged, and releases them.
func writeEach(t *testing.T, held []*wire.Buf) {
	t.Helper()
	want := make([][]byte, len(held))
	for i, b := range held {
		want[i] = bytes.Clone(b.Bytes())
	}
	for i, b := range held {
		mark := byte(0xa0 + i%16)
		n := min(b.Len(), 3)
		b.TrimFront(n)
		p := b.Prepend(n)
		for j := range p {
			p[j] = mark
		}
		p = b.Extend(2)
		p[0], p[1] = mark, mark
		want[i] = append(append(bytes.Repeat([]byte{mark}, n), want[i][n:]...), mark, mark)
		for j, o := range held {
			if !bytes.Equal(o.Bytes(), want[j]) {
				t.Fatalf("datagram %d of %d changed by writes into datagram %d", j, len(held), i)
			}
		}
	}
	for _, b := range held {
		b.Release()
	}
}

// FuzzGROSplit cuts a train of any length and any segment size into
// datagrams through the connected socket's queue — whose 64 slots a
// train of more segments overflows into later calls — and reads a
// segment size out of any control bytes. A train longer than its receive
// buffer arrives cut off, as the kernel leaves it. Nothing panics, the
// datagrams join back into the train's complete segments with only the
// last one short, the rest are counted as lost, a write into one
// datagram leaves the others unchanged, and every pooled buffer is
// accounted for.
func FuzzGROSplit(f *testing.F) {
	f.Add(uint16(14*1209-1176), int32(1209), groCmsg(1209))
	f.Add(uint16(62868), int32(1209), []byte{})
	f.Add(uint16(65480), int32(1100), []byte{})
	f.Add(uint16(65443), int32(1092), []byte{})
	f.Add(uint16(65535), int32(1), append(make([]byte, 16), groCmsg(7)...))
	f.Add(uint16(100), int32(-5), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint16(60001), int32(0), groCmsg(-1))
	f.Fuzz(func(t *testing.T, n uint16, seg int32, ctrl []byte) {
		if got := groSegSize(ctrl); got < 0 {
			t.Fatalf("groSegSize = %d", got)
		}
		if got := groSegSize(append(groCmsg(seg), ctrl...)); got != max(0, int(seg)) {
			t.Fatalf("groSegSize of a UDP_GRO cmsg of %d = %d", seg, got)
		}
		size, s := int(n), max(0, int(seg))
		baseline := wire.BufsOutstanding()
		train := wire.NewBuf(wire.DefaultHeadroom, recvSlot)
		p := train.Bytes()
		for i := range p {
			p[i] = byte(i*7 + i>>8)
		}
		// What should arrive: every segment the buffer holds whole, or the
		// one datagram if it fits and is no longer than MaxDatagram.
		var want []byte
		k, lost := 0, 1
		if s == 0 || s >= size {
			if size <= recvSlot && size <= MaxDatagram {
				want, k, lost = p[:size], 1, 0
			}
		} else {
			segs := (size + s - 1) / s
			switch {
			case s > MaxDatagram:
				k = 0
			case size <= recvSlot:
				k = segs
			default:
				k = recvSlot / s
			}
			want, lost = p[:min(size, k*s)], segs-k
		}
		want = append([]byte(nil), want...)

		reg := telemetry.New()
		tel := &netCounters{
			recvd:            reg.Counter("recvd"),
			dropped:          reg.Counter("dropped"),
			droppedMalformed: reg.Counter("malformed"),
		}
		q := &recvQueue{}
		q.in[0], q.size[0], q.seg[0], q.got = train, int32(size), seg, 1
		var got []byte
		count := 0
		for q.take(tel) > 0 {
			var held []*wire.Buf
			for b := q.pop(); b != nil; b = q.pop() {
				if count+1 < k && b.Len() != s {
					t.Fatalf("datagram %d of %d: %d bytes, want %d", count, k, b.Len(), s)
				}
				got = append(got, b.Bytes()...)
				count++
				held = append(held, b)
			}
			writeEach(t, held)
		}
		if count != k || !bytes.Equal(got, want) || tel.droppedMalformed.Value() != uint64(lost) {
			t.Fatalf("%d bytes of %d-byte segments: %d datagrams joining to %d bytes and %d lost, want %d joining to %d and %d lost",
				size, seg, count, len(got), tel.droppedMalformed.Value(), k, len(want), lost)
		}
		q.release()
		if d := wire.BufsOutstanding() - baseline; d != 0 {
			t.Fatalf("%d pooled buffers unaccounted for", d)
		}
	})
}
