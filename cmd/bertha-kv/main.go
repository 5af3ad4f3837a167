// Command bertha-kv runs the sharded key-value store of Listing 4/5
// over real UDP sockets, as a server or a client.
//
// Server (Listing 4): one process, one store and queue worker per shard,
// a canonical Bertha endpoint with the sharding chunnel, and per-shard
// listeners for client-push traffic, each served in bursts by one worker
// per reactor shard (bertha.Serve):
//
//	bertha-kv -serve -listen 127.0.0.1:9000 -shards 3
//
// Client (Listing 5): declares no chunnels; the sharding behaviour is
// dictated by the server. With -push the client links the client-push
// implementation and negotiation routes requests directly to shards:
//
//	bertha-kv -connect 127.0.0.1:9000 put mykey myvalue
//	bertha-kv -connect 127.0.0.1:9000 -push get mykey
//	bertha-kv -connect 127.0.0.1:9000 -ycsb 10000
//
// With -trace on both sides, negotiation inserts the trace chunnel and
// sampled requests carry an in-band trace context; each hop's spans
// land in that process's flight-recorder ring, queryable on the server
// at the telemetry endpoint's ?spans= view (and the metrics at
// ?format=prom). -trace-rate overrides the default 1/128 sampling.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/bertha/transport"
	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/chunnels/traced"
	"github.com/bertha-net/bertha/internal/kv"
	"github.com/bertha-net/bertha/internal/stats"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/ycsb"
)

func main() {
	var (
		serve     = flag.Bool("serve", false, "run the sharded server")
		listen    = flag.String("listen", "127.0.0.1:9000", "server canonical UDP address")
		shards    = flag.Int("shards", 3, "shard count (server)")
		connect   = flag.String("connect", "", "server address to connect to (client)")
		push      = flag.Bool("push", false, "client links the client-push sharding implementation")
		ycsbN     = flag.Int("ycsb", 0, "run N YCSB-A operations instead of a single command")
		records   = flag.Int("records", 1000, "YCSB keyspace size")
		telemAddr = flag.String("telemetry", "", "HTTP address serving "+telemetry.Endpoint+" (server; empty disables)")
		traceOn   = flag.Bool("trace", false, "enable in-band message tracing on this endpoint's connections")
		traceRate = flag.Float64("trace-rate", 0, "tracing sample rate in (0,1] (0 selects the default 1/128)")
	)
	flag.Parse()

	var traceOpts []bertha.Option
	if *traceOn {
		traceOpts = append(traceOpts, bertha.WithTracing(bertha.TraceConfig{SampleRate: *traceRate}))
	}

	switch {
	case *serve:
		if *telemAddr != "" {
			errCh := make(chan error, 1)
			telemetry.Serve(*telemAddr, telemetry.Default(), errCh)
			select {
			case err := <-errCh:
				fail(fmt.Errorf("telemetry endpoint: %w", err))
			case <-time.After(100 * time.Millisecond):
				fmt.Printf("bertha-kv: telemetry at http://%s%s\n", *telemAddr, telemetry.Endpoint)
			}
		}
		if err := runServer(*listen, *shards, traceOpts); err != nil {
			fail(err)
		}
	case *connect != "":
		if err := runClient(*connect, *push, *ycsbN, *records, traceOpts, flag.Args()); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "bertha-kv: pass -serve or -connect; see -h")
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "bertha-kv: %v\n", err)
	os.Exit(1)
}

func runServer(listen string, nshards int, traceOpts []bertha.Option) error {
	ctx := context.Background()
	srv, err := kv.NewServer(nshards)
	if err != nil {
		return err
	}
	defer srv.Close()

	host, _ := os.Hostname()
	var shardAddrs []bertha.Addr
	for i := 0; i < nshards; i++ {
		l, err := transport.ListenUDP(host, "127.0.0.1:0")
		if err != nil {
			return err
		}
		shardAddrs = append(shardAddrs, l.Addr())
		srv.ServeShard(i, l)
		fmt.Printf("bertha-kv: shard %d at %s\n", i, l.Addr().Addr)
	}

	reg := bertha.NewRegistry()
	shard.RegisterServer(reg)
	x := shard.RegisterXDP(reg)
	traced.Register(reg)
	env := bertha.NewEnv(host)
	env.SetDialer(&transport.MultiDialer{HostID: host})
	env.Provide(shard.EnvQueues, srv.Queues())

	ep, err := bertha.New("my-kv-srv",
		bertha.Wrap(bertha.Shard(shardAddrs, kv.ShardFunc(nshards))),
		append([]bertha.Option{bertha.WithRegistry(reg), bertha.WithEnv(env)}, traceOpts...)...)
	if err != nil {
		return err
	}
	base, err := transport.ListenUDP(host, listen)
	if err != nil {
		return err
	}
	nl, err := ep.Listen(ctx, base)
	if err != nil {
		return err
	}
	fmt.Printf("bertha-kv: canonical address %s (%d shards)\n", base.Addr().Addr, nshards)
	srv.ServeSteered(nl)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("bertha-kv: served %d keys, xdp steered %d packets; shutting down\n",
		srv.TotalKeys(), x.Hook().Stats().Redirected)
	return nil
}

func runClient(addr string, push bool, ycsbN, records int, traceOpts []bertha.Option, args []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	host, _ := os.Hostname()
	reg := bertha.NewRegistry()
	if push {
		shard.RegisterClient(reg)
	}
	// Always offer the trace chunnel so a tracing server can negotiate
	// it in; without -trace this side still forwards contexts but never
	// originates them.
	traced.Register(reg)
	env := bertha.NewEnv(host + "-client")
	env.SetDialer(&transport.MultiDialer{HostID: env.Host})
	ep, err := bertha.New("client_conn", bertha.Wrap(),
		append([]bertha.Option{bertha.WithRegistry(reg), bertha.WithEnv(env)}, traceOpts...)...)
	if err != nil {
		return err
	}
	raw, err := transport.DialUDP(env.Host, addr)
	if err != nil {
		return err
	}
	conn, err := ep.Connect(ctx, raw)
	if err != nil {
		return err
	}
	cli := kv.NewClient(conn)
	defer cli.Close()

	if ycsbN > 0 {
		return runYCSB(ctx, cli, ycsbN, records)
	}
	if len(args) == 0 {
		return fmt.Errorf("no command; use get/put/update/delete or -ycsb N")
	}
	switch strings.ToLower(args[0]) {
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		v, err := cli.Get(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", v)
	case "put":
		if len(args) != 3 {
			return fmt.Errorf("usage: put <key> <value>")
		}
		return cli.Put(ctx, args[1], []byte(args[2]))
	case "update":
		if len(args) != 3 {
			return fmt.Errorf("usage: update <key> <value>")
		}
		return cli.Update(ctx, args[1], []byte(args[2]))
	case "delete":
		if len(args) != 2 {
			return fmt.Errorf("usage: delete <key>")
		}
		return cli.Delete(ctx, args[1])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}

func runYCSB(ctx context.Context, cli *kv.Client, n, records int) error {
	gen, err := ycsb.NewGenerator(ycsb.Config{
		Workload: ycsb.WorkloadA, Records: records,
		Dist: ycsb.Uniform, OverrideDist: true,
		ValueSize: 100, Seed: time.Now().UnixNano(),
	})
	if err != nil {
		return err
	}
	// Preload through the wire so the experiment is self-contained.
	for _, k := range gen.InitialKeys() {
		if err := cli.Put(ctx, k, []byte("init")); err != nil {
			return fmt.Errorf("preload %s: %w", k, err)
		}
	}
	rec := stats.NewRecorder(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		op := gen.Next()
		t0 := time.Now()
		switch op.Kind {
		case ycsb.Read:
			_, err = cli.Get(ctx, op.Key)
		default:
			err = cli.Update(ctx, op.Key, op.Value)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		rec.Record(time.Since(t0))
	}
	elapsed := time.Since(start)
	s := rec.Summarize()
	fmt.Printf("ycsb-a: %d ops in %v (%.0f ops/s)\n", n, elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds())
	fmt.Printf("latency µs: p50=%.1f p95=%.1f p99=%.1f\n", s.P50, s.P95, s.P99)
	return nil
}
