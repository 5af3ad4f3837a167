package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/kv"
	"github.com/bertha-net/bertha/internal/stats"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/ycsb"
)

// Fig5Config parameterizes the sharding experiment.
type Fig5Config struct {
	// Requests is the total operation count per scenario and load level
	// (the paper runs 300000; the default is scaled for quick runs).
	Requests int
	// Clients is the number of load-generating clients (paper: 2).
	Clients int
	// Shards is the shard count (paper: 3, one thread per shard).
	Shards int
	// Records is the preloaded keyspace size.
	Records int
	// Concurrency sweeps the offered load: outstanding operations per
	// client (closed loop).
	Concurrency []int
	// ValueSize is the value payload size.
	ValueSize int
	// Seed drives the workload generators.
	Seed int64
}

func (c *Fig5Config) fill() {
	if c.Requests <= 0 {
		c.Requests = 30000
	}
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Records <= 0 {
		c.Records = 1000
	}
	if len(c.Concurrency) == 0 {
		c.Concurrency = []int{1, 4, 16, 64}
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// fig5Scenario configures one §5 sharding variant.
type fig5Scenario struct {
	name string
	// clientPush[i] controls whether client i links the push impl.
	clientPush func(i int) bool
	// registerXDP controls whether the server registers the XDP impl.
	registerXDP bool
	// policy optionally pins the server's selection policy.
	policy core.Policy
}

func fig5Scenarios(clients int) []fig5Scenario {
	return []fig5Scenario{
		{name: "client-push", clientPush: func(int) bool { return true }, registerXDP: true},
		{name: "server-xdp", clientPush: func(int) bool { return false }, registerXDP: true},
		{name: "mixed", clientPush: func(i int) bool { return i%2 == 0 }, registerXDP: true},
		{name: "server-fallback", clientPush: func(int) bool { return false }, registerXDP: false,
			policy: core.PreferImpl(shard.ImplServer)},
	}
}

// Fig5 runs the Figure 5 sharding experiment: a YCSB workload-A
// (50% read / 50% update), uniform-key load against a 3-shard key-value
// store from 2 clients, under four deployment scenarios:
//
//	client-push      — clients compute the shard and send directly
//	server-xdp       — the (simulated) XDP program steers at the server
//	mixed            — one client pushes, the other uses the server path
//	server-fallback  — a single userspace steering worker forwards
//
// For each offered-load level (outstanding ops per client) it reports
// achieved throughput and latency percentiles. The expected shape:
// client-push and server-xdp sustain load with flat p95; the
// server-fallback's single steering worker saturates first, its p95
// exploding at much lower throughput; mixed lands in between.
func Fig5(w io.Writer, cfg Fig5Config) error {
	cfg.fill()
	table := stats.NewTable(
		fmt.Sprintf("fig5: sharding — YCSB-A uniform, %d ops, %d clients, %d shards",
			cfg.Requests, cfg.Clients, cfg.Shards),
		"scenario", "outstanding", "ops/s", "p50 (µs)", "p95 (µs)", "p99 (µs)")

	for _, sc := range fig5Scenarios(cfg.Clients) {
		for _, conc := range cfg.Concurrency {
			opsPerSec, summary, err := fig5Run(cfg, sc, conc)
			if err != nil {
				return fmt.Errorf("fig5 %s (conc %d): %w", sc.name, conc, err)
			}
			table.AddRow(sc.name, conc, opsPerSec, summary.P50, summary.P95, summary.P99)
		}
	}
	table.Render(w)
	return nil
}

// fig5Run executes one (scenario, concurrency) cell and returns achieved
// throughput and the latency summary.
func fig5Run(cfg Fig5Config, sc fig5Scenario, conc int) (float64, stats.Summary, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pn := transport.NewPipeNetwork()
	srv, err := kv.NewServer(cfg.Shards)
	if err != nil {
		return 0, stats.Summary{}, err
	}
	defer srv.Close()

	var shardAddrs []core.Addr
	for i := 0; i < cfg.Shards; i++ {
		l, err := pn.Listen("srvhost", fmt.Sprintf("shard%d", i))
		if err != nil {
			return 0, stats.Summary{}, err
		}
		shardAddrs = append(shardAddrs, l.Addr())
		srv.ServeShard(i, l)
	}

	regS := bertha.NewRegistry()
	shard.RegisterServer(regS)
	if sc.registerXDP {
		shard.RegisterXDP(regS)
	}
	envS := bertha.NewEnv("srvhost")
	envS.SetDialer(&transport.MultiDialer{HostID: "srvhost", Pipe: pn})
	envS.Provide(shard.EnvQueues, srv.Queues())

	opts := []bertha.Option{bertha.WithRegistry(regS), bertha.WithEnv(envS)}
	if sc.policy != nil {
		opts = append(opts, bertha.WithPolicy(sc.policy))
	}
	srvEp, err := bertha.New("my-kv-srv",
		bertha.Wrap(bertha.Shard(shardAddrs, kv.ShardFunc(cfg.Shards))), opts...)
	if err != nil {
		return 0, stats.Summary{}, err
	}
	baseL, err := pn.Listen("srvhost", "kv")
	if err != nil {
		return 0, stats.Summary{}, err
	}
	nl, err := srvEp.Listen(ctx, baseL)
	if err != nil {
		return 0, stats.Summary{}, err
	}
	srv.ServeSteered(nl)

	// Preload.
	gen0, err := ycsb.NewGenerator(ycsb.Config{
		Workload: ycsb.WorkloadA, Records: cfg.Records,
		Dist: ycsb.Uniform, OverrideDist: true,
		ValueSize: cfg.ValueSize, Seed: cfg.Seed,
	})
	if err != nil {
		return 0, stats.Summary{}, err
	}
	if err := srv.Preload(gen0.InitialKeys(), bytes.Repeat([]byte{0xAB}, cfg.ValueSize)); err != nil {
		return 0, stats.Summary{}, err
	}

	// Clients.
	rec := stats.NewRecorder(cfg.Requests)
	clients := make([]*kv.Client, cfg.Clients)
	for i := range clients {
		regC := bertha.NewRegistry()
		if sc.clientPush(i) {
			shard.RegisterClient(regC)
		}
		envC := bertha.NewEnv(fmt.Sprintf("clihost%d", i))
		envC.SetDialer(&transport.MultiDialer{HostID: envC.Host, Pipe: pn})
		cliEp, err := bertha.New(fmt.Sprintf("kv-client-%d", i), bertha.Wrap(),
			bertha.WithRegistry(regC), bertha.WithEnv(envC))
		if err != nil {
			return 0, stats.Summary{}, err
		}
		raw, err := pn.DialFrom(ctx, envC.Host, core.Addr{Net: "pipe", Addr: "kv"})
		if err != nil {
			return 0, stats.Summary{}, err
		}
		conn, err := cliEp.Connect(ctx, raw)
		if err != nil {
			return 0, stats.Summary{}, err
		}
		clients[i] = kv.NewClient(conn)
		defer clients[i].Close()
	}

	perClient := cfg.Requests / cfg.Clients
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Clients*conc)
	start := time.Now()
	for i, cli := range clients {
		gen, err := ycsb.NewGenerator(ycsb.Config{
			Workload: ycsb.WorkloadA, Records: cfg.Records,
			Dist: ycsb.Uniform, OverrideDist: true,
			ValueSize: cfg.ValueSize, Seed: cfg.Seed + int64(i) + 1,
		})
		if err != nil {
			return 0, stats.Summary{}, err
		}
		var genMu sync.Mutex
		nextOp := func() ycsb.Op {
			genMu.Lock()
			defer genMu.Unlock()
			return gen.Next()
		}
		perWorker := perClient / conc
		for wkr := 0; wkr < conc; wkr++ {
			wg.Add(1)
			go func(cli *kv.Client) {
				defer wg.Done()
				for n := 0; n < perWorker; n++ {
					op := nextOp()
					t0 := time.Now()
					var err error
					switch op.Kind {
					case ycsb.Read:
						_, err = cli.Get(ctx, op.Key)
					default:
						err = cli.Update(ctx, op.Key, op.Value)
					}
					if err != nil {
						errCh <- err
						return
					}
					rec.Record(time.Since(t0))
				}
			}(cli)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, stats.Summary{}, err
	default:
	}
	opsPerSec := float64(rec.Count()) / elapsed.Seconds()
	return opsPerSec, rec.Summarize(), nil
}
