package bertha_test

import (
	"context"
	"testing"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/chunnels/localfast"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// TestServerWrapDoesNotWaitOnPeer is DESIGN §10's contract: a
// server-side Wrap does not wait on its peer. Every admission holds one
// of the listener's places until its connection is queued, so Wraps that
// waited would hold every other client's handshake behind their peers.
// Every implementation RegisterStandard installs that runs on the server
// is initialized and wrapped over a pipe whose peer never sends, with its
// chunnel constructor's arguments and the parameters its own
// NegotiateParams publishes; each Wrap returns within one hello attempt
// (250 ms).
func TestServerWrapDoesNotWaitOnPeer(t *testing.T) {
	ctx := ctxT(t)
	reg := bertha.NewRegistry()
	bertha.RegisterStandard(reg)
	peers := []bertha.Addr{{Net: "pipe", Host: "h", Addr: "peer"}}
	args := map[string][]wire.Value{}
	for _, n := range []bertha.Node{
		bertha.Serialize(), bertha.Reliable(), bertha.Ordered(), bertha.Compress(6),
		bertha.Encrypt(make([]byte, 32)), bertha.HTTP2(1200),
		bertha.Shard(peers, bertha.FieldHash{Length: 4, Shards: 1}), bertha.LB(peers),
		bertha.OrderedMcast("group", []string{"h"}),
	} {
		args[n.Type] = n.Args
	}
	ipc := transport.NewPipeNetwork()
	ipcL, err := ipc.Listen("h", "app.sock")
	if err != nil {
		t.Fatal(err)
	}
	defer ipcL.Close()
	backend, err := ipc.Listen("h", "peer") // the shard's and the balancer's, silent too
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	env := bertha.NewEnv("h")
	env.Provide(localfast.EnvListener, ipcL)
	env.SetDialer(&transport.MultiDialer{HostID: "h", Pipe: ipc})

	wrapped := 0
	for _, typ := range reg.Types() {
		for _, impl := range reg.ImplsFor(typ) {
			if impl.Info().Endpoint == spec.EndpointClient {
				continue
			}
			t.Run(impl.Info().Name, func(t *testing.T) {
				a := args[typ]
				if err := impl.Init(ctx, env, a); err != nil {
					t.Fatalf("init: %v", err)
				}
				defer impl.Teardown(ctx, env)
				var params []wire.Value
				if pp, ok := impl.(core.ParamProvider); ok {
					if params, err = pp.NegotiateParams(ctx, env, a); err != nil {
						t.Fatalf("params: %v", err)
					}
				}
				srv, silent := transport.Pipe(bertha.Addr{Net: "pipe", Addr: "srv"}, peers[0], 16)
				defer silent.Close()
				wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				defer cancel()
				type result struct {
					c   core.Conn
					err error
				}
				done := make(chan result, 1)
				go func() {
					c, err := impl.Wrap(wctx, srv, a, params, bertha.SideServer, env)
					done <- result{c, err}
				}()
				select {
				case r := <-done:
					if r.err != nil {
						t.Fatalf("wrap: %v", r.err)
					}
					r.c.Close()
					wrapped++
				case <-time.After(250 * time.Millisecond):
					t.Fatal("the server's Wrap is waiting on a peer that stays silent")
				}
			})
		}
	}
	if wrapped == 0 {
		t.Fatal("no implementation was wrapped")
	}
}
