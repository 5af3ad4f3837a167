package mcast_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/mcast"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/simnet"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

const gid = "g1"

var replicaHosts = []string{"r1", "r2", "r3"}

// deployment is a 3-replica group plus clients on a one-switch fabric.
type deployment struct {
	net     *simnet.Network
	sw      *simnet.Switch
	hosts   map[string]*simnet.Host
	impls   map[string]*mcast.Impl // per replica host
	applied map[string]*[]uint64   // per replica: delivered seqs
	mu      sync.Mutex
}

// deploy builds the fabric and starts replicas. Both variants are
// registered (the host fallback is mandatory); withSwitch controls
// whether replicas expose the programmable switch to negotiation.
func deploy(t *testing.T, withSwitch bool, lossy string) *deployment {
	t.Helper()
	ctx := ctxT(t)
	d := &deployment{
		net:     simnet.New(),
		hosts:   map[string]*simnet.Host{},
		impls:   map[string]*mcast.Impl{},
		applied: map[string]*[]uint64{},
	}
	t.Cleanup(d.net.Close)
	sw, err := d.net.AddSwitch("tor", 16)
	if err != nil {
		t.Fatal(err)
	}
	d.sw = sw

	for _, h := range append(append([]string{}, replicaHosts...), "c1", "c2") {
		cfg := simnet.LinkConfig{Latency: 200 * time.Microsecond}
		if h == lossy {
			cfg.LossProb = 0.3
			cfg.Seed = 99
		}
		host, err := d.net.AddHost(h, sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.hosts[h] = host
	}

	// Start replicas.
	for _, h := range replicaHosts {
		reg := core.NewRegistry()
		swImpl, hostImpl := mcast.Register(reg)
		impl := hostImpl
		if withSwitch {
			impl = swImpl
		}
		d.impls[h] = impl

		env := core.NewEnv(h)
		env.Provide(mcast.EnvHost, d.hosts[h])
		if withSwitch {
			env.Provide(mcast.EnvSwitch, sw)
		}
		env.SetDialer(d.hosts[h].Dialer())

		if err := impl.EnsureReplica(env, gid, replicaHosts); err != nil {
			t.Fatalf("replica %s: %v", h, err)
		}
		// Replica application: apply ops in order, echo the op + host id.
		seqs := &[]uint64{}
		d.applied[h] = seqs
		deliveries, ok := impl.Deliveries(gid)
		if !ok {
			t.Fatalf("replica %s: no delivery stream", h)
		}
		go func() {
			for del := range deliveries {
				d.mu.Lock()
				*seqs = append(*seqs, del.Seq)
				d.mu.Unlock()
				if del.Reply != nil && !del.Gap {
					del.Reply(ctx, append(append([]byte{}, del.Payload...), []byte("@"+h)...))
				}
			}
		}()

		// Bertha listener for negotiation.
		ep, err := core.NewEndpoint("replica-"+h, spec.Seq(mcast.Node(gid, replicaHosts)),
			core.WithRegistry(reg), core.WithEnv(env))
		if err != nil {
			t.Fatal(err)
		}
		base, err := d.hosts[h].Listen("rsm")
		if err != nil {
			t.Fatal(err)
		}
		nl, err := ep.Listen(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				if _, err := nl.Accept(ctx); err != nil {
					return
				}
			}
		}()
	}
	return d
}

// connectClient negotiates a group connection from the named client
// host.
func (d *deployment) connectClient(t *testing.T, from string) core.Conn {
	t.Helper()
	ctx := ctxT(t)
	reg := core.NewRegistry()
	mcast.Register(reg)
	env := core.NewEnv(from)
	env.SetDialer(d.hosts[from].Dialer())
	cli, err := core.NewEndpoint("ordered-multicast-client", spec.Seq(),
		core.WithRegistry(reg), core.WithEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	var raws []core.Conn
	for _, h := range replicaHosts {
		raw, err := d.hosts[from].Dial(ctx, d.hosts[h].Addr("rsm"))
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	conn, err := cli.ConnectMulti(ctx, raws)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// invoke multicasts one op and collects all three replica replies.
func invoke(t *testing.T, ctx context.Context, conn core.Conn, op string) []string {
	t.Helper()
	if err := conn.Send(ctx, []byte(op)); err != nil {
		t.Fatal(err)
	}
	var replies []string
	for len(replies) < len(replicaHosts) {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		m, err := conn.Recv(rctx)
		cancel()
		if err != nil {
			t.Fatalf("awaiting replies to %q (have %v): %v", op, replies, err)
		}
		replies = append(replies, string(m))
	}
	return replies
}

func sameOrder(t *testing.T, d *deployment, minOps int) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	ref := *d.applied[replicaHosts[0]]
	if len(ref) < minOps {
		t.Fatalf("replica %s applied only %d ops", replicaHosts[0], len(ref))
	}
	for _, h := range replicaHosts[1:] {
		got := *d.applied[h]
		if len(got) != len(ref) {
			t.Fatalf("replica %s applied %d ops, %s applied %d", h, len(got), replicaHosts[0], len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("divergent order at %d: %s=%d %s=%d", i, replicaHosts[0], ref[i], h, got[i])
			}
		}
	}
}

func TestOrderedMulticastAllReplicasSameOrder(t *testing.T) {
	for name, withSwitch := range map[string]bool{"switch": true, "host": false} {
		t.Run(name, func(t *testing.T) {
			ctx := ctxT(t)
			d := deploy(t, withSwitch, "")
			c1 := d.connectClient(t, "c1")
			c2 := d.connectClient(t, "c2")

			// Two clients race 20 ops each.
			var wg sync.WaitGroup
			for ci, conn := range []core.Conn{c1, c2} {
				wg.Add(1)
				go func(ci int, conn core.Conn) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						replies := invoke(t, ctx, conn, fmt.Sprintf("op-%d-%d", ci, i))
						if len(replies) != 3 {
							t.Errorf("got %d replies", len(replies))
						}
					}
				}(ci, conn)
			}
			wg.Wait()
			// Allow deliveries to drain, then compare orders.
			time.Sleep(200 * time.Millisecond)
			sameOrder(t, d, 40)
		})
	}
}

func TestSwitchSequencerStampsContiguously(t *testing.T) {
	ctx := ctxT(t)
	d := deploy(t, true, "")
	c1 := d.connectClient(t, "c1")
	for i := 0; i < 10; i++ {
		invoke(t, ctx, c1, fmt.Sprintf("op%d", i))
	}
	time.Sleep(100 * time.Millisecond)
	d.mu.Lock()
	defer d.mu.Unlock()
	seqs := *d.applied["r1"]
	if len(seqs) != 10 {
		t.Fatalf("applied %d", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Errorf("seq[%d] = %d, want %d", i, s, i+1)
		}
	}
	// The switch table holds the group's sequencer entry.
	if !d.sw.HasEntry("sequencer:" + gid) {
		t.Error("sequencer entry not installed")
	}
	_, used := d.sw.Capacity()
	if used == 0 {
		t.Error("switch capacity accounting")
	}
}

func TestRepairRecoversLostMulticast(t *testing.T) {
	// Replica r3's downlink drops 30% of packets: it misses multicasts
	// and must repair them from peers, still applying the same order.
	ctx := ctxT(t)
	d := deploy(t, true, "r3")
	c1 := d.connectClient(t, "c1")

	for i := 0; i < 30; i++ {
		// Quorum of 2 suffices under loss; collect at least 2 replies.
		if err := c1.Send(ctx, []byte(fmt.Sprintf("op%d", i))); err != nil {
			t.Fatal(err)
		}
		got := 0
		for got < 2 {
			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			_, err := c1.Recv(rctx)
			cancel()
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			got++
		}
	}
	// Give the repair machinery time to fill gaps.
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		n := len(*d.applied["r3"])
		d.mu.Unlock()
		if n >= 30 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	sameOrder(t, d, 30)
}

func TestHostFallbackWorksWithoutSwitchEnv(t *testing.T) {
	// The host variant must run on a fabric whose switch offers no
	// programmability (EnvSwitch absent).
	ctx := ctxT(t)
	d := &deployment{
		net:     simnet.New(),
		hosts:   map[string]*simnet.Host{},
		impls:   map[string]*mcast.Impl{},
		applied: map[string]*[]uint64{},
	}
	t.Cleanup(d.net.Close)
	sw, _ := d.net.AddSwitch("dumb", 0) // zero table capacity
	for _, h := range append(append([]string{}, replicaHosts...), "c1") {
		host, err := d.net.AddHost(h, sw, simnet.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		d.hosts[h] = host
	}
	for _, h := range replicaHosts {
		reg := core.NewRegistry()
		_, impl := mcast.Register(reg)
		env := core.NewEnv(h)
		env.Provide(mcast.EnvHost, d.hosts[h])
		env.SetDialer(d.hosts[h].Dialer())
		if err := impl.EnsureReplica(env, gid, replicaHosts); err != nil {
			t.Fatal(err)
		}
		deliveries, _ := impl.Deliveries(gid)
		seqs := &[]uint64{}
		d.applied[h] = seqs
		go func() {
			for del := range deliveries {
				d.mu.Lock()
				*seqs = append(*seqs, del.Seq)
				d.mu.Unlock()
				if del.Reply != nil {
					del.Reply(ctx, []byte("ok"))
				}
			}
		}()
		ep, _ := core.NewEndpoint("r-"+h, spec.Seq(mcast.Node(gid, replicaHosts)),
			core.WithRegistry(reg), core.WithEnv(env))
		base, _ := d.hosts[h].Listen("rsm")
		nl, _ := ep.Listen(ctx, base)
		go func() {
			for {
				if _, err := nl.Accept(ctx); err != nil {
					return
				}
			}
		}()
	}
	conn := d.connectClient(t, "c1")
	for i := 0; i < 5; i++ {
		replies := invoke(t, ctxT(t), conn, fmt.Sprintf("op%d", i))
		if len(replies) != 3 {
			t.Fatalf("replies: %v", replies)
		}
	}
	sameOrder(t, d, 5)
}

// TestReplicaCaptiveCloseJoins: a replica's per-connection captive joins
// the goroutine that drains it: none is left when Close returns.
func TestReplicaCaptiveCloseJoins(t *testing.T) {
	ctx := ctxT(t)
	im := mcast.RegisterHost(core.NewRegistry())
	a := core.Addr{Net: "pipe", Host: "r1", Addr: "r1"}
	conn, peer := transport.Pipe(a, a, 16)
	defer peer.Close()
	var c core.Conn
	var err error
	running := testutil.Track(ctx, func() {
		c, err = im.Wrap(ctx, conn, mcast.Node(gid, replicaHosts).Args, nil, core.SideServer, core.NewEnv("r1"))
	})
	if err != nil {
		t.Fatal(err)
	}
	const fn = "mcast.(*Impl).wrap.func"
	for deadline := time.Now().Add(2 * time.Second); running(fn) < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the captive's drain is not running")
		}
	}
	c.Close()
	if n := running(fn); n != 0 {
		t.Errorf("%d of the captive's goroutines left when Close returned", n)
	}
}
