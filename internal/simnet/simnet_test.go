package simnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// star builds a one-switch network with the given hosts.
func star(t *testing.T, latency time.Duration, hosts ...string) (*Network, *Switch, map[string]*Host) {
	t.Helper()
	n := New()
	t.Cleanup(n.Close)
	sw, err := n.AddSwitch("tor", 16)
	if err != nil {
		t.Fatal(err)
	}
	hs := map[string]*Host{}
	for _, name := range hosts {
		h, err := n.AddHost(name, sw, LinkConfig{Latency: latency})
		if err != nil {
			t.Fatal(err)
		}
		hs[name] = h
	}
	return n, sw, hs
}

func TestBasicDeliveryAndEcho(t *testing.T) {
	ctx := ctxT(t)
	_, _, hs := star(t, 0, "a", "b")
	l, err := hs["b"].Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := hs["a"].Dial(ctx, hs["b"].Addr("svc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(ctx, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := srv.Recv(ctx); err != nil || string(m) != "ping" {
		t.Fatalf("recv: %q %v", m, err)
	}
	if err := srv.Send(ctx, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if m, err := cli.Recv(ctx); err != nil || string(m) != "pong" {
		t.Fatalf("reply: %q %v", m, err)
	}
	// Host identity flows through addresses.
	if !cli.LocalAddr().SameHost(core.Addr{Host: "a"}) {
		t.Errorf("local addr: %s", cli.LocalAddr())
	}
}

func TestLatencyIsImposed(t *testing.T) {
	ctx := ctxT(t)
	const lat = 20 * time.Millisecond
	_, _, hs := star(t, lat, "a", "b")
	l, _ := hs["b"].Listen("svc")
	cli, _ := hs["a"].Dial(ctx, hs["b"].Addr("svc"))

	start := time.Now()
	cli.Send(ctx, []byte("x"))
	srv, _ := l.Accept(ctx)
	if _, err := srv.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// One-way = uplink + downlink = 2 * lat.
	if elapsed < 2*lat {
		t.Errorf("one-way delivery took %v, want >= %v", elapsed, 2*lat)
	}
	if elapsed > 10*lat {
		t.Errorf("delivery suspiciously slow: %v", elapsed)
	}
}

func TestFIFOOrdering(t *testing.T) {
	ctx := ctxT(t)
	_, _, hs := star(t, time.Millisecond, "a", "b")
	l, _ := hs["b"].Listen("svc")
	cli, _ := hs["a"].Dial(ctx, hs["b"].Addr("svc"))
	const n = 100
	for i := 0; i < n; i++ {
		cli.Send(ctx, []byte{byte(i)})
	}
	srv, _ := l.Accept(ctx)
	for i := 0; i < n; i++ {
		m, err := srv.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m[0] != byte(i) {
			t.Fatalf("out of order: got %d at position %d", m[0], i)
		}
	}
}

func TestLinkLoss(t *testing.T) {
	ctx := ctxT(t)
	n := New()
	t.Cleanup(n.Close)
	sw, _ := n.AddSwitch("tor", 4)
	a, _ := n.AddHost("a", sw, LinkConfig{LossProb: 0.5, Seed: 11})
	b, _ := n.AddHost("b", sw, LinkConfig{})
	l, _ := b.Listen("svc")
	cli, _ := a.Dial(ctx, b.Addr("svc"))
	const sent = 200
	for i := 0; i < sent; i++ {
		cli.Send(ctx, []byte{byte(i)})
	}
	srv, _ := l.Accept(ctx)
	got := 0
	for {
		rctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
		_, err := srv.Recv(rctx)
		cancel()
		if err != nil {
			break
		}
		got++
	}
	if got == 0 || got >= sent {
		t.Errorf("loss 0.5 delivered %d of %d", got, sent)
	}
}

func TestSwitchMatchActionRewrite(t *testing.T) {
	ctx := ctxT(t)
	_, sw, hs := star(t, 0, "a", "b", "c")
	// Steer every packet destined to b's service onto c instead.
	err := sw.InstallEntry(&Entry{
		Name: "steer-b-to-c",
		Match: func(pkt *Packet) bool {
			return pkt.Dst == hs["b"].Addr("svc")
		},
		Action: func(s *Switch, pkt Packet) []Packet {
			pkt.Dst = hs["c"].Addr("svc")
			return []Packet{pkt}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lc, _ := hs["c"].Listen("svc")
	cli, _ := hs["a"].Dial(ctx, hs["b"].Addr("svc"))
	cli.Send(ctx, []byte("redirected"))
	srv, err := lc.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := srv.Recv(ctx); err != nil || string(m) != "redirected" {
		t.Fatalf("recv: %q %v", m, err)
	}
	// Removing the entry restores direct delivery.
	if err := sw.RemoveEntry("steer-b-to-c"); err != nil {
		t.Fatal(err)
	}
	lb, _ := hs["b"].Listen("svc")
	cli.Send(ctx, []byte("direct"))
	srvB, err := lb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := srvB.Recv(ctx); err != nil || string(m) != "direct" {
		t.Fatalf("direct: %q %v", m, err)
	}
}

func TestSwitchTableCapacity(t *testing.T) {
	n := New()
	t.Cleanup(n.Close)
	sw, _ := n.AddSwitch("tor", 3)
	mk := func(name string, cost int) *Entry {
		return &Entry{Name: name, Cost: cost, Match: func(*Packet) bool { return false }}
	}
	if err := sw.InstallEntry(mk("e1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallEntry(mk("e2", 2)); err == nil {
		t.Error("capacity 3 should reject cost 2+2")
	}
	if err := sw.InstallEntry(mk("e3", 1)); err != nil {
		t.Errorf("cost 1 should fit: %v", err)
	}
	if err := sw.InstallEntry(mk("e1", 1)); err == nil {
		t.Error("duplicate name should be rejected")
	}
	total, used := sw.Capacity()
	if total != 3 || used != 3 {
		t.Errorf("capacity: %d/%d", used, total)
	}
	if err := sw.RemoveEntry("e1"); err != nil {
		t.Fatal(err)
	}
	if _, used := sw.Capacity(); used != 1 {
		t.Errorf("used after remove: %d", used)
	}
	if err := sw.RemoveEntry("missing"); err == nil {
		t.Error("removing unknown entry should fail")
	}
	if err := sw.InstallEntry(&Entry{Name: "bad"}); err == nil {
		t.Error("entry without Match should be rejected")
	}
}

func TestSwitchEntryPriority(t *testing.T) {
	ctx := ctxT(t)
	_, sw, hs := star(t, 0, "a", "b")
	hits := make(chan string, 4)
	matchAll := func(*Packet) bool { return true }
	record := func(tag string) func(s *Switch, pkt Packet) []Packet {
		return func(s *Switch, pkt Packet) []Packet {
			hits <- tag
			return []Packet{pkt}
		}
	}
	sw.InstallEntry(&Entry{Name: "low", Priority: 1, Match: matchAll, Action: record("low")})
	sw.InstallEntry(&Entry{Name: "high", Priority: 10, Match: matchAll, Action: record("high")})

	l, _ := hs["b"].Listen("svc")
	cli, _ := hs["a"].Dial(ctx, hs["b"].Addr("svc"))
	cli.Send(ctx, []byte("x"))
	srv, _ := l.Accept(ctx)
	srv.Recv(ctx)
	select {
	case tag := <-hits:
		if tag != "high" {
			t.Errorf("matched %q, want high-priority entry", tag)
		}
	default:
		t.Error("no entry matched")
	}
}

func TestMulticastGroupFanOut(t *testing.T) {
	ctx := ctxT(t)
	_, sw, hs := star(t, 0, "cli", "r1", "r2", "r3")
	var members []core.Addr
	var listeners []core.Listener
	for _, r := range []string{"r1", "r2", "r3"} {
		l, _ := hs[r].Listen("rsm")
		listeners = append(listeners, l)
		members = append(members, hs[r].Addr("rsm"))
	}
	sw.AddGroup("g1", members)
	if len(sw.Group("g1")) != 3 {
		t.Fatal("group membership")
	}

	cli, _ := hs["cli"].Dial(ctx, sw.GroupAddr("g1"))
	cli.Send(ctx, []byte("op1"))
	for i, l := range listeners {
		conn, err := l.Accept(ctx)
		if err != nil {
			t.Fatalf("replica %d accept: %v", i, err)
		}
		if m, err := conn.Recv(ctx); err != nil || string(m) != "op1" {
			t.Fatalf("replica %d: %q %v", i, m, err)
		}
		// Replicas can reply unicast to the sender.
		conn.Send(ctx, []byte(fmt.Sprintf("ack%d", i)))
	}
	acks := map[string]bool{}
	for i := 0; i < 3; i++ {
		m, err := cli.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		acks[string(m)] = true
	}
	if len(acks) != 3 {
		t.Errorf("acks: %v", acks)
	}
	sw.RemoveGroup("g1")
	if len(sw.Group("g1")) != 0 {
		t.Error("group removal")
	}
}

// TestSequencerStamping models the NOPaxos-style in-switch sequencer: a
// match-action entry stamps a monotonically increasing sequence number
// into every group-addressed packet, so all replicas see the same order.
func TestSequencerStamping(t *testing.T) {
	ctx := ctxT(t)
	_, sw, hs := star(t, 0, "c1", "c2", "r1", "r2")
	var members []core.Addr
	var listeners []core.Listener
	for _, r := range []string{"r1", "r2"} {
		l, _ := hs[r].Listen("rsm")
		listeners = append(listeners, l)
		members = append(members, hs[r].Addr("rsm"))
	}
	sw.AddGroup("g", members)
	// Sequencer entry: stamp seq into bytes [0:8) of a reserved header.
	sw.InstallEntry(&Entry{
		Name: "sequencer:g",
		Match: func(pkt *Packet) bool {
			gid, ok := groupID(pkt.Dst)
			return ok && gid == "g" && len(pkt.Payload) >= 8
		},
		Action: func(s *Switch, pkt Packet) []Packet {
			binary.LittleEndian.PutUint64(pkt.Payload[:8], s.NextSeq())
			return []Packet{pkt}
		},
	})

	// Two clients race multicasts.
	c1, _ := hs["c1"].Dial(ctx, sw.GroupAddr("g"))
	c2, _ := hs["c2"].Dial(ctx, sw.GroupAddr("g"))
	const per = 20
	for i := 0; i < per; i++ {
		msg := make([]byte, 9)
		msg[8] = byte(i)
		c1.Send(ctx, msg)
		c2.Send(ctx, msg)
	}

	// Every replica must observe the identical sequence order.
	orders := make([][]uint64, 2)
	for ri, l := range listeners {
		conn, err := l.Accept(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		// Each replica receives from both clients through one listener
		// conn per client source; accept the second conn too and pump
		// both into one channel.
		conn2, err := l.Accept(ctx)
		if err != nil {
			t.Fatal(err)
		}
		msgs := make(chan []byte, 4*per)
		for _, c := range []core.Conn{conn, conn2} {
			go func() {
				for {
					m, err := c.Recv(ctx)
					if err != nil {
						return
					}
					msgs <- m
				}
			}()
		}
		for i := 0; i < 2*per; i++ {
			var m []byte
			select {
			case m = <-msgs:
			case <-time.After(3 * time.Second):
				t.Fatalf("replica %d msg %d: timeout", ri, i)
			}
			seq := binary.LittleEndian.Uint64(m[:8])
			if seq == 0 || seen[seq] {
				t.Fatalf("replica %d: bad/dup seq %d", ri, seq)
			}
			seen[seq] = true
			orders[ri] = append(orders[ri], seq)
		}
	}
	// Same multiset of sequence numbers at both replicas, 1..2*per.
	for ri, ord := range orders {
		if len(ord) != 2*per {
			t.Fatalf("replica %d saw %d msgs", ri, len(ord))
		}
	}
}

func TestDialUnknownHostDrops(t *testing.T) {
	ctx := ctxT(t)
	_, _, hs := star(t, 0, "a")
	cli, _ := hs["a"].Dial(ctx, core.Addr{Net: "sim", Host: "ghost", Addr: "ghost:svc"})
	// Send succeeds (datagram), nothing crashes, nothing arrives.
	if err := cli.Send(ctx, []byte("void")); err != nil {
		t.Fatal(err)
	}
	if _, err := hs["a"].Dial(ctx, core.Addr{Net: "udp", Addr: "1.2.3.4:1"}); err == nil {
		t.Error("dialing a non-sim address should fail")
	}
}

func TestDuplicateBindings(t *testing.T) {
	n := New()
	t.Cleanup(n.Close)
	sw, _ := n.AddSwitch("s", 1)
	if _, err := n.AddSwitch("s", 1); err == nil {
		t.Error("duplicate switch")
	}
	h, _ := n.AddHost("h", sw, LinkConfig{})
	if _, err := n.AddHost("h", sw, LinkConfig{}); err == nil {
		t.Error("duplicate host")
	}
	if _, err := h.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Listen("x"); err == nil {
		t.Error("duplicate service")
	}
}

func TestListenerCloseReleasesService(t *testing.T) {
	ctx := ctxT(t)
	_, _, hs := star(t, 0, "a", "b")
	l, _ := hs["b"].Listen("svc")
	l.Close()
	if _, err := l.Accept(ctx); err != core.ErrClosed {
		t.Errorf("accept after close: %v", err)
	}
	// Service name is free again.
	if _, err := hs["b"].Listen("svc"); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestConnCloseSemantics(t *testing.T) {
	ctx := ctxT(t)
	_, _, hs := star(t, 0, "a", "b")
	l, _ := hs["b"].Listen("svc")
	cli, _ := hs["a"].Dial(ctx, hs["b"].Addr("svc"))
	cli.Send(ctx, []byte("x"))
	srv, _ := l.Accept(ctx)
	srv.Recv(ctx)
	cli.Close()
	if err := cli.Send(ctx, []byte("y")); err != core.ErrClosed {
		t.Errorf("send after close: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestBandwidthSerializationDelay(t *testing.T) {
	ctx := ctxT(t)
	n := New()
	t.Cleanup(n.Close)
	sw, _ := n.AddSwitch("tor", 4)
	// 1 MB/s uplink: a 100 KB packet takes 100 ms to serialize.
	a, _ := n.AddHost("a", sw, LinkConfig{Bandwidth: 1 << 20})
	b, _ := n.AddHost("b", sw, LinkConfig{})
	l, _ := b.Listen("svc")
	cli, _ := a.Dial(ctx, b.Addr("svc"))

	payload := make([]byte, 100<<10)
	start := time.Now()
	cli.Send(ctx, payload)
	srv, _ := l.Accept(ctx)
	if _, err := srv.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	want := time.Duration(float64(100<<10) / float64(1<<20) * float64(time.Second)) // ≈97.6ms
	if elapsed < want/2 {
		t.Errorf("delivery took %v, expected >= ~%v of serialization delay", elapsed, want)
	}
	if elapsed > 5*want {
		t.Errorf("delivery suspiciously slow: %v", elapsed)
	}

	// FIFO queuing: two packets back to back arrive roughly one
	// serialization delay apart.
	cli.Send(ctx, payload)
	t0 := time.Now()
	cli.Send(ctx, payload)
	srv.Recv(ctx)
	srv.Recv(ctx)
	gap := time.Since(t0)
	if gap < 80*time.Millisecond {
		t.Errorf("second packet arrived after %v, expected queuing behind the first", gap)
	}
}

func TestZeroBandwidthMeansInfinite(t *testing.T) {
	ctx := ctxT(t)
	_, _, hs := star(t, 0, "a", "b")
	l, _ := hs["b"].Listen("svc")
	cli, _ := hs["a"].Dial(ctx, hs["b"].Addr("svc"))
	start := time.Now()
	cli.Send(ctx, make([]byte, 1<<20)) // 1 MB, no bandwidth limit
	srv, _ := l.Accept(ctx)
	if _, err := srv.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("unlimited link took %v for 1MB", elapsed)
	}
}
