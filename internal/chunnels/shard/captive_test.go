package shard

import (
	"context"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/xdp"
)

// captiveJoins wraps one server connection with wrap and closes what it
// returns: the goroutines the wrap started, those with a frame of fn,
// are running before Close and none is left when it returns.
func captiveJoins(t *testing.T, fn string, want int, wrap func(ctx context.Context, conn core.Conn) (core.Conn, error)) {
	t.Helper()
	ctx := context.Background()
	a := core.Addr{Net: "pipe", Host: "srv", Addr: "srv"}
	conn, peer := transport.Pipe(a, a, 16)
	defer peer.Close()
	var c core.Conn
	var err error
	running := testutil.Track(ctx, func() { c, err = wrap(ctx, conn) })
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); running(fn) < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the captive's %d goroutines running", running(fn), want)
		}
	}
	c.Close()
	if n := running(fn); n != 0 {
		t.Errorf("%d of the captive's goroutines left when Close returned", n)
	}
}

// TestServerFallbackCloseJoins: the fallback's captive joins its reply
// relays and its ingress pump.
func TestServerFallbackCloseJoins(t *testing.T) {
	pn := transport.NewPipeNetwork()
	var shards []core.Addr
	for _, name := range []string{"s0", "s1"} {
		l, err := pn.Listen("srv", name)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		shards = append(shards, l.Addr())
	}
	env := core.NewEnv("srv")
	env.SetDialer(pn.Dialer("srv"))
	s := newServerImpl()
	args := Node(shards, xdp.FieldHash{Shards: 2}).Args
	captiveJoins(t, "(*serverImpl).wrap.func", 3, func(ctx context.Context, conn core.Conn) (core.Conn, error) {
		return s.Wrap(ctx, conn, args, nil, core.SideServer, env)
	})
}

// TestXDPCloseJoins: the XDP impl's captive joins its pump.
func TestXDPCloseJoins(t *testing.T) {
	x := newXDPImpl()
	shards := []core.Addr{{Net: "pipe", Addr: "s0"}, {Net: "pipe", Addr: "s1"}}
	env := core.NewEnv("srv")
	env.Provide(EnvQueues, []chan Steered{make(chan Steered, 1), make(chan Steered, 1)})
	args := Node(shards, xdp.FieldHash{Shards: 2}).Args
	captiveJoins(t, "(*XDPImpl).wrap.func", 1, func(ctx context.Context, conn core.Conn) (core.Conn, error) {
		return x.Wrap(ctx, conn, args, nil, core.SideServer, env)
	})
}
