package rsm_test

import (
	"bytes"
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/mcast"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/rsm"
	"github.com/bertha-net/bertha/internal/simnet"
	"github.com/bertha-net/bertha/internal/spec"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// counterSM is a deterministic state machine: ops are "add N"; results
// report the running total.
func counterSM() (rsm.StateMachine, *int64) {
	var total int64
	var mu sync.Mutex
	return rsm.Func(func(op []byte) []byte {
		n, _ := strconv.ParseInt(string(op), 10, 64)
		mu.Lock()
		total += n
		v := total
		mu.Unlock()
		return []byte(strconv.FormatInt(v, 10))
	}), &total
}

const gid = "rsm1"

var hosts = []string{"r1", "r2", "r3"}

type cluster struct {
	net      *simnet.Network
	hostMap  map[string]*simnet.Host
	replicas map[string]*rsm.Replica
}

// startCluster deploys the 3-replica RSM on a switch fabric.
func startCluster(t *testing.T, withSwitch bool) *cluster {
	t.Helper()
	ctx := ctxT(t)
	c := &cluster{
		net:      simnet.New(),
		hostMap:  map[string]*simnet.Host{},
		replicas: map[string]*rsm.Replica{},
	}
	t.Cleanup(c.net.Close)
	sw, _ := c.net.AddSwitch("tor", 16)
	for _, h := range append(append([]string{}, hosts...), "cli") {
		host, err := c.net.AddHost(h, sw, simnet.LinkConfig{Latency: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		c.hostMap[h] = host
	}
	for _, h := range hosts {
		reg := core.NewRegistry()
		swImpl, hostImpl := mcast.Register(reg)
		impl := hostImpl
		if withSwitch {
			impl = swImpl
		}
		env := core.NewEnv(h)
		env.Provide(mcast.EnvHost, c.hostMap[h])
		if withSwitch {
			env.Provide(mcast.EnvSwitch, sw)
		}
		env.SetDialer(c.hostMap[h].Dialer())
		if err := impl.EnsureReplica(env, gid, hosts); err != nil {
			t.Fatal(err)
		}
		sm, _ := counterSM()
		rep := rsm.NewReplica(sm)
		c.replicas[h] = rep
		deliveries, _ := impl.Deliveries(gid)
		go rep.Run(ctx, deliveries)

		ep, _ := core.NewEndpoint("rsm-"+h, spec.Seq(mcast.Node(gid, hosts)),
			core.WithRegistry(reg), core.WithEnv(env))
		base, _ := c.hostMap[h].Listen("rsm")
		nl, _ := ep.Listen(ctx, base)
		go func() {
			for {
				if _, err := nl.Accept(ctx); err != nil {
					return
				}
			}
		}()
	}
	return c
}

func (c *cluster) client(t *testing.T) *rsm.Client {
	t.Helper()
	ctx := ctxT(t)
	reg := core.NewRegistry()
	mcast.Register(reg)
	env := core.NewEnv("cli")
	env.SetDialer(c.hostMap["cli"].Dialer())
	ep, _ := core.NewEndpoint("ordered-multicast-client", spec.Seq(),
		core.WithRegistry(reg), core.WithEnv(env))
	var raws []core.Conn
	for _, h := range hosts {
		raw, err := c.hostMap["cli"].Dial(ctx, c.hostMap[h].Addr("rsm"))
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	conn, err := ep.ConnectMulti(ctx, raws)
	if err != nil {
		t.Fatal(err)
	}
	cli := rsm.NewClient(conn, 2) // majority of 3
	t.Cleanup(func() { cli.Close() })
	return cli
}

func TestRSMLinearCounter(t *testing.T) {
	for name, withSwitch := range map[string]bool{"switch": true, "host": false} {
		t.Run(name, func(t *testing.T) {
			ctx := ctxT(t)
			c := startCluster(t, withSwitch)
			cli := c.client(t)
			sum := int64(0)
			for i := 1; i <= 20; i++ {
				sum += int64(i)
				res, err := cli.Invoke(ctx, []byte(strconv.Itoa(i)))
				if err != nil {
					t.Fatalf("invoke %d: %v", i, err)
				}
				if string(res) != strconv.FormatInt(sum, 10) {
					t.Fatalf("invoke %d: result %s, want %d", i, res, sum)
				}
			}
		})
	}
}

func TestRSMReplicasStayIdentical(t *testing.T) {
	ctx := ctxT(t)
	c := startCluster(t, true)

	// Two concurrent clients race increments; replica digests must agree.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := c.client(t)
			for i := 0; i < 15; i++ {
				if _, err := cli.Invoke(ctx, []byte(strconv.Itoa(g*100+i))); err != nil {
					t.Errorf("client %d op %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	time.Sleep(300 * time.Millisecond) // let all replicas drain

	var digests [][32]byte
	for _, h := range hosts {
		if got := c.replicas[h].Applied(); got < 30 {
			t.Fatalf("replica %s applied %d of 30", h, got)
		}
		digests = append(digests, c.replicas[h].Digest())
	}
	for i := 1; i < len(digests); i++ {
		if !bytes.Equal(digests[0][:], digests[i][:]) {
			t.Fatalf("replica %s diverged from %s", hosts[i], hosts[0])
		}
	}
}

func TestRSMQuorumToleratesSlowReplica(t *testing.T) {
	// With quorum 2 of 3, results return even if one replica is slow;
	// here all are healthy, but the client must not wait for the third.
	ctx := ctxT(t)
	c := startCluster(t, true)
	cli := c.client(t)
	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := cli.Invoke(ctx, []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("10 invocations took %v", elapsed)
	}
}

func TestRSMInvokeFailsWithoutQuorumBeforeDeadline(t *testing.T) {
	ctx := ctxT(t)
	c := startCluster(t, true)
	conn := func() core.Conn {
		reg := core.NewRegistry()
		mcast.Register(reg)
		env := core.NewEnv("cli")
		env.SetDialer(c.hostMap["cli"].Dialer())
		ep, _ := core.NewEndpoint("cli", spec.Seq(), core.WithRegistry(reg), core.WithEnv(env))
		var raws []core.Conn
		for _, h := range hosts {
			raw, _ := c.hostMap["cli"].Dial(ctx, c.hostMap[h].Addr("rsm"))
			raws = append(raws, raw)
		}
		cc, err := ep.ConnectMulti(ctx, raws)
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}()
	// Quorum 4 > 3 replicas: can never be met.
	cli := rsm.NewClient(conn, 4)
	defer cli.Close()
	ictx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancel()
	if _, err := cli.Invoke(ictx, []byte("1")); err == nil {
		t.Error("quorum 4 of 3 should time out")
	}
}

func TestFuncAdapter(t *testing.T) {
	sm := rsm.Func(func(op []byte) []byte { return append(op, '!') })
	if string(sm.Apply([]byte("x"))) != "x!" {
		t.Error("Func adapter")
	}
}
