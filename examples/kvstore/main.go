// Sharded key-value store: Listings 4 and 5 end to end. The server
// exposes one canonical address with a sharding chunnel whose shard
// function is declarative (hash of the key field), so it can be
// negotiated to clients and offloads. Two clients connect: one links
// the client-push implementation (requests go straight to the right
// shard), the other relies on the server's XDP-style steering — the
// paper's "Mixed" deployment, in one process.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/bertha/transport"
	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/kv"
)

func main() {
	ctx := context.Background()
	net := transport.NewPipeNetwork()
	const nshards = 3

	// --- Listing 4: the server ---
	server, err := kv.NewServer(nshards)
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	var shardAddrs []bertha.Addr
	for i := 0; i < nshards; i++ {
		l, err := net.Listen("server-host", fmt.Sprintf("shard%d", i))
		if err != nil {
			log.Fatal(err)
		}
		shardAddrs = append(shardAddrs, l.Addr())
		server.ServeShard(i, l)
	}

	regS := bertha.NewRegistry()
	shard.RegisterServer(regS) // userspace fallback
	x := shard.RegisterXDP(regS)
	envS := bertha.NewEnv("server-host")
	envS.SetDialer(&transport.MultiDialer{HostID: "server-host", Pipe: net})
	envS.Provide(shard.EnvQueues, server.Queues())

	// let srv = bertha::new("my-kv-srv",
	//     wrap!(shard(shard::args(choices: shards), fn: shard_fn)))
	//     .listen(addr, port);
	srv, err := bertha.New("my-kv-srv",
		bertha.Wrap(bertha.Shard(shardAddrs, kv.ShardFunc(nshards))),
		bertha.WithRegistry(regS), bertha.WithEnv(envS))
	if err != nil {
		log.Fatal(err)
	}
	base, err := net.Listen("server-host", "kv")
	if err != nil {
		log.Fatal(err)
	}
	nl, err := srv.Listen(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	server.ServeSteered(nl) // steered connections are only held: their requests reach the shard queues

	// --- Listing 5: clients ---
	dial := func(name, host string, push bool) *kv.Client {
		reg := bertha.NewRegistry()
		if push {
			shard.RegisterClient(reg) // bertha::register_chunnel(...)
		}
		env := bertha.NewEnv(host)
		env.SetDialer(&transport.MultiDialer{HostID: host, Pipe: net})
		ep, err := bertha.New(name, bertha.Wrap(), // no chunnels: server dictates
			bertha.WithRegistry(reg), bertha.WithEnv(env))
		if err != nil {
			log.Fatal(err)
		}
		raw, err := net.DialFrom(ctx, host, bertha.Addr{Net: "pipe", Addr: "kv"})
		if err != nil {
			log.Fatal(err)
		}
		conn, err := ep.Connect(ctx, raw)
		if err != nil {
			log.Fatal(err)
		}
		return kv.NewClient(conn)
	}

	pushClient := dial("client-push", "host-a", true)
	defer pushClient.Close()
	plainClient := dial("client-plain", "host-b", false)
	defer plainClient.Close()

	// Both clients operate on the same keyspace through their different
	// negotiated paths.
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("%012d", i)
		if err := pushClient.Put(ctx, key, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("%012d", i)
		v, err := plainClient.Get(ctx, key)
		if err != nil {
			log.Fatal(err)
		}
		if string(v) != fmt.Sprintf("value-%d", i) {
			log.Fatalf("key %s: got %q", key, v)
		}
	}

	for i := 0; i < nshards; i++ {
		fmt.Printf("shard %d holds %d keys\n", i, server.Shard(i).Len())
	}
	fmt.Printf("xdp steering: %d packets redirected (plain client's traffic)\n",
		x.Hook().Stats().Redirected)
	fmt.Println("kvstore: push and steered clients agree on all 30 keys")
}
