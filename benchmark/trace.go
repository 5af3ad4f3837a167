package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/bertha/transport"
	"github.com/bertha-net/bertha/internal/chunnels/crypt"
	"github.com/bertha-net/bertha/internal/chunnels/framing"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/core"
)

// traceRingSize bounds the traced run's memory: 2^20 spans of 32 bytes.
const traceRingSize = 1 << 20

// opID tags an op with its connection, so ids never collide across
// connections and are never zero.
func opID(conn int, seq uint64) uint64 { return uint64(conn+1)<<48 | seq }

// tracedWorld is a workload rebuilt with a spanConn at every layer
// boundary on both sides.
type tracedWorld struct {
	ring *spanRing
	// run drives one connection until stop, appending each verified op.
	run   []func(stop *atomic.Bool, ops *[]opWindow)
	close func()
	// rows turns the recorded spans into the workload's trace rows (µs,
	// keyed without the "trace.<workload>." prefix) and the mean duration
	// of the ops they describe.
	rows func(ops []opWindow, spans []span) (map[string]float64, float64)
	// dump, when set, is where the median band's spans are written as the
	// pass ends; layers names them.
	dump   string
	layers []string
}

// tracePass runs a traced world for d and returns its rows, the traced
// ops' median (µs) and how many ops the ring still held whole.
func tracePass(tw *tracedWorld, d time.Duration) (rows map[string]float64, p50 float64, n int) {
	var stop atomic.Bool
	perConn := make([][]opWindow, len(tw.run))
	var wg sync.WaitGroup
	for i, run := range tw.run {
		wg.Add(1)
		go func(i int, run func(*atomic.Bool, *[]opWindow)) {
			defer wg.Done()
			run(&stop, &perConn[i])
		}(i, run)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	tw.close() // joins the server side: no writer is left

	spans, from := tw.ring.spans()
	var ops []opWindow
	var durs []float64
	for _, c := range perConn {
		for _, w := range c {
			durs = append(durs, float64(w.end-w.start)/1e3)
			// Blocked receives start before their op, so an op is only
			// complete in the ring if it began after the oldest span ended.
			if w.start >= from {
				ops = append(ops, w)
			}
		}
	}
	if len(durs) == 0 {
		return map[string]float64{}, 0, 0
	}
	rows, _ = tw.rows(ops, spans)
	if tw.dump != "" {
		band, _ := medianBand(ops)
		keep := map[uint64]bool{}
		for _, i := range band {
			keep[ops[i].op] = true
		}
		var out []span
		for _, s := range spans {
			if keep[s.op] {
				out = append(out, s)
			}
		}
		if err := writeSpans(tw.dump, tw.layers, out); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: span dump: %v\n", err)
		}
	}
	return rows, median(durs), len(ops)
}

// --- echo: the manual equivalent of the negotiated stack ---

// echoTracedStack wraps raw as serialize |> encrypt |> http2 do, with a
// spanConn above every layer.
func echoTracedStack(raw bertha.Conn, ring *spanRing, conn, side uint8, key []byte) (bertha.Conn, error) {
	at := func(layer uint8, inner bertha.Conn) bertha.Conn {
		return &spanConn{inner: inner, ring: ring, conn: conn, side: side, layer: layer, idAt: -1}
	}
	fr, err := framing.New(at(3, raw), echoFrame)
	if err != nil {
		return nil, err
	}
	cr, err := crypt.New(at(2, fr), key)
	if err != nil {
		return nil, err
	}
	se, err := serialize.New(at(1, cr), serialize.FormatBincode)
	if err != nil {
		return nil, err
	}
	return at(0, se), nil
}

// tracedEchoListener hands out its listener's connections wrapped in the
// traced stack. Accept order is connection order: clients connect one
// by one.
type tracedEchoListener struct {
	bertha.Listener
	ring *spanRing
	key  []byte
	next uint8
}

func (l *tracedEchoListener) Accept(ctx context.Context) (bertha.Conn, error) {
	raw, err := l.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	conn, err := echoTracedStack(raw, l.ring, l.next, sideServer, l.key)
	if err != nil {
		raw.Close()
		return nil, err
	}
	l.next++
	return conn, nil
}

func setupEchoTraced(cfg runConfig, size int) (*tracedWorld, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	key := make([]byte, 32)
	rng.Read(key)
	ring := newSpanRing(traceRingSize)

	base, err := transport.ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// One reactor goroutine, as in the untraced workload (echo.go).
	if err := configureReactor(base, bertha.ReactorConfig{Shards: 1}); err != nil {
		base.Close()
		return nil, err
	}
	srv := serveEcho(&tracedEchoListener{Listener: base, ring: ring, key: key}, 0)
	tw := &tracedWorld{ring: ring, layers: echoLayers}
	var conns []bertha.Conn
	tw.close = func() {
		for _, c := range conns {
			c.Close()
		}
		srv.close()
	}
	for i := 0; i < numConns; i++ {
		raw, err := transport.DialUDP("cli", base.Addr().Addr)
		if err != nil {
			tw.close()
			return nil, err
		}
		conn, err := echoTracedStack(raw, ring, uint8(i), sideClient, key)
		if err != nil {
			raw.Close()
			tw.close()
			return nil, err
		}
		conns = append(conns, conn)
		c := newEchoClient(conn, rng, size)
		octx, ocancel := opContext()
		err = c.roundTrip(octx)
		ocancel()
		if err != nil {
			tw.close()
			return nil, fmt.Errorf("traced echo: first round trip: %w", err)
		}
		i := i
		tw.run = append(tw.run, func(stop *atomic.Bool, ops *[]opWindow) {
			for !stop.Load() {
				octx, ocancel := opContext()
				t0 := ring.now()
				err := c.roundTrip(octx)
				t1 := ring.now()
				ocancel()
				if err == nil {
					*ops = append(*ops, opWindow{op: opID(i, c.seq), conn: uint8(i), start: t0, end: t1})
				}
			}
		})
	}
	l := rowLayout{layers: len(echoLayers)}
	tw.rows = func(ops []opWindow, spans []span) (map[string]float64, float64) {
		assignByTime(spans, ops)
		rows, opUS := bandRows(ops, spans, l)
		return namedRows(echoLayers, rows), opUS
	}
	return tw, nil
}

// namedRows labels bandRows' output with a workload's row names.
func namedRows(layers []string, rows []float64) map[string]float64 {
	l := rowLayout{layers: len(layers)}
	out := map[string]float64{
		"server_app_us": rows[l.serverApp()],
		"in_flight_us":  rows[l.inFlight()],
	}
	for i, name := range layers {
		out["send."+name+"_us"] = rows[l.send(uint8(i))]
		out["recv."+name+"_us"] = rows[l.recv(uint8(i))]
	}
	return out
}

// --- kv: the negotiated stack over span-wrapped transports ---

// spanListener wraps every accepted connection in a bottom-layer
// spanConn that reads op ids at idAt.
type spanListener struct {
	bertha.Listener
	ring  *spanRing
	layer uint8
	idAt  int
}

func (l *spanListener) Accept(ctx context.Context) (bertha.Conn, error) {
	c, err := l.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	return &spanConn{inner: c, ring: l.ring, side: sideServer, layer: l.layer, idAt: l.idAt}, nil
}

// spanDialer wraps every dialed connection likewise (the client-push
// implementation dials the shard listeners through it).
type spanDialer struct {
	inner bertha.Dialer
	ring  *spanRing
	layer uint8
}

func (d *spanDialer) Dial(ctx context.Context, addr bertha.Addr) (bertha.Conn, error) {
	c, err := d.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &spanConn{inner: c, ring: d.ring, side: sideClient, layer: d.layer, idAt: 0}, nil
}

const (
	kvCodecLayer = 0
	kvShardLayer = 1
	kvTransLayer = 2
)

// steeredQueues interposes on the shard chunnel's per-shard queues: the
// moment a steered request leaves the chunnel and the moment the store's
// reply re-enters it are the server-side boundaries of the shard layer.
func steeredQueues(ctx context.Context, wg *sync.WaitGroup, ring *spanRing, l rowLayout, real []chan shard.Steered) []chan shard.Steered {
	mine := make([]chan shard.Steered, len(real))
	for i := range mine {
		mine[i] = make(chan shard.Steered, cap(real[i]))
		wg.Add(1)
		go func(in <-chan shard.Steered, out chan<- shard.Steered) {
			defer wg.Done()
			for {
				var st shard.Steered
				select {
				case st = <-in:
				case <-ctx.Done():
					return
				}
				arrived := ring.now()
				var id uint64
				if len(st.Payload) >= 8 {
					id = binary.LittleEndian.Uint64(st.Payload)
				}
				// A receive span open since the ring's base: selfTimes
				// starts it where the transport's receive returned.
				ring.add(span{end: arrived, op: id, side: sideServer, dir: dirRecv, layer: kvShardLayer})
				reply := st.Reply
				st.Reply = func(ctx context.Context, p []byte) error {
					answered := ring.now()
					ring.add(span{start: arrived, end: answered, op: id, side: sideServer,
						dir: dirNone, layer: uint8(l.serverApp())})
					err := reply(ctx, p)
					ring.add(span{start: answered, end: ring.now(), op: id, side: sideServer,
						dir: dirSend, layer: kvShardLayer})
					return err
				}
				select {
				case out <- st:
				case <-ctx.Done():
					return
				}
			}
		}(mine[i], real[i])
	}
	return mine
}

func setupKVTraced(cfg runConfig) (*tracedWorld, error) {
	ring := newSpanRing(traceRingSize)
	l := rowLayout{layers: len(kvLayers)}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	srv, err := startKVServer(cfg.seed, udpNet, kvHooks{
		listener: func(lis bertha.Listener, idAt int) bertha.Listener {
			return &spanListener{Listener: lis, ring: ring, layer: kvTransLayer, idAt: idAt}
		},
		queues: func(q []chan shard.Steered) []chan shard.Steered {
			return steeredQueues(ctx, &wg, ring, l, q)
		},
	})
	if err != nil {
		cancel()
		return nil, err
	}
	tw := &tracedWorld{ring: ring, layers: kvLayers}
	var conns []bertha.Conn
	tw.close = func() {
		for _, c := range conns {
			c.Close()
		}
		srv.close()
		cancel()
		wg.Wait()
	}
	for i := 0; i < numConns; i++ {
		name := fmt.Sprintf("kv-cli-%d", i)
		dialer := &spanDialer{inner: clientDialer{udpNet, "cli-" + name}, ring: ring, layer: kvTransLayer}
		conn, err := connectKV(name, srv.addr, udpNet, i == 0, dialer, func(raw bertha.Conn) bertha.Conn {
			return &spanConn{inner: raw, ring: ring, side: sideClient, layer: kvTransLayer, idAt: 1}
		})
		if err != nil {
			tw.close()
			return nil, err
		}
		conns = append(conns, conn)
		top := &spanConn{inner: conn, ring: ring, side: sideClient, layer: kvShardLayer, idAt: 0}
		c, err := newKVClient(top, i, cfg.seed)
		if err != nil {
			tw.close()
			return nil, err
		}
		rel := func(t time.Time) int64 { return int64(t.Sub(ring.base)) }
		c.codec = func(id uint64, send bool, t0, t1 time.Time) {
			row := l.recv(kvCodecLayer)
			if send {
				row = l.send(kvCodecLayer)
			}
			ring.add(span{start: rel(t0), end: rel(t1), op: id, side: sideClient, dir: dirNone, layer: uint8(row)})
		}
		i := i
		tw.run = append(tw.run, func(stop *atomic.Bool, ops *[]opWindow) {
			c.done = func(id uint64, t0, t1 time.Time) {
				*ops = append(*ops, opWindow{op: id, conn: uint8(i), start: rel(t0), end: rel(t1)})
			}
			var off atomic.Bool // the op windows come through c.done
			c.run(stop, newRecorder(&off, 0))
		})
	}
	tw.rows = func(ops []opWindow, spans []span) (map[string]float64, float64) {
		rows, opUS := bandRows(ops, spans, l)
		return namedRows(kvLayers, rows), opUS
	}
	return tw, nil
}

// --- churn: real negotiation, phases stamped around it ---

// spanDiscovery times the server endpoint's discovery queries.
type spanDiscovery struct {
	bertha.DiscoveryClient
	ring *spanRing
}

func (d *spanDiscovery) Query(ctx context.Context, types []string) ([]core.ImplOffer, error) {
	t0 := d.ring.now()
	offers, err := d.DiscoveryClient.Query(ctx, types)
	d.ring.add(span{start: t0, end: d.ring.now(), side: sideServer, dir: dirNone})
	return offers, err
}

// churnOp is one traced lifecycle's phase boundaries.
type churnOp struct {
	op uint64
	t  churnTimes
}

func setupChurnTraced(cfg runConfig) (*tracedWorld, error) {
	ring := newSpanRing(traceRingSize)
	rng := rand.New(rand.NewSource(cfg.seed))
	srv, err := startChurnServer(cfg.sockDir, func(d bertha.DiscoveryClient) bertha.DiscoveryClient {
		return &spanDiscovery{DiscoveryClient: d, ring: ring}
	})
	if err != nil {
		return nil, err
	}
	tw := &tracedWorld{ring: ring, close: srv.close}
	var mu sync.Mutex
	var traced []churnOp
	for i := 0; i < numConns; i++ {
		c, err := newChurnClient(fmt.Sprintf("churn-cli-%d", i), churnHost, srv.addr, rng)
		if err != nil {
			srv.close()
			return nil, err
		}
		// The raw connection's first receive is the ServerHello.
		c.wrapRaw = func(op uint64, raw bertha.Conn) bertha.Conn {
			return &spanConn{inner: raw, ring: ring, side: sideClient, op: op, idAt: -1}
		}
		i := i
		tw.run = append(tw.run, func(stop *atomic.Bool, ops *[]opWindow) {
			var mine []churnOp
			for seq := uint64(1); !stop.Load(); seq++ {
				ctx, cancel := opContext()
				t, err := c.attempt(ctx, opID(i, seq))
				cancel()
				if err != nil {
					continue // a dead-on-arrival connection is not the median op
				}
				mine = append(mine, churnOp{opID(i, seq), t})
				*ops = append(*ops, opWindow{op: opID(i, seq), conn: uint8(i),
					start: int64(t.start.Sub(ring.base)), end: int64(t.closed.Sub(ring.base))})
			}
			mu.Lock()
			traced = append(traced, mine...)
			mu.Unlock()
		})
	}
	tw.rows = func(ops []opWindow, spans []span) (map[string]float64, float64) {
		return churnRows(ring, ops, traced, spans)
	}
	return tw, nil
}

// churnRows splits each median-band lifecycle into its phases. hello
// runs from Connect's start to the ServerHello's arrival, less the
// server's discovery query inside it; assemble from there to Connect's
// return. The phases sum to the lifecycle exactly.
func churnRows(ring *spanRing, ops []opWindow, traced []churnOp, spans []span) (map[string]float64, float64) {
	helloAt := map[uint64]int64{} // op → first receive on the raw connection
	var queries []span
	for _, s := range spans {
		switch {
		case s.side == sideClient && s.dir == dirRecv && s.op != 0:
			if at, ok := helloAt[s.op]; !ok || s.end < at {
				helloAt[s.op] = s.end
			}
		case s.side == sideServer && s.dir == dirNone:
			queries = append(queries, s)
		}
	}
	byOp := map[uint64]churnTimes{}
	for _, t := range traced {
		byOp[t.op] = t.t
	}
	// A query belongs to the lifecycle whose hello it answered: the one
	// awaiting its ServerHello when the query ran. The accept loop is
	// serial, so that is the earliest hello arrival after the query.
	type waiting struct {
		op         uint64
		from, till int64
	}
	var ws []waiting
	for op, at := range helloAt {
		if t, ok := byOp[op]; ok {
			ws = append(ws, waiting{op, int64(t.dialed.Sub(ring.base)), at})
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].till < ws[j].till })
	discovery := map[uint64]int64{}
	for _, q := range queries {
		k := sort.Search(len(ws), func(i int) bool { return ws[i].till >= q.end })
		if k < len(ws) && ws[k].from <= q.start {
			discovery[ws[k].op] += q.end - q.start
		}
	}

	band, _ := medianBand(ops)
	sum := map[string]float64{}
	var total float64
	n := 0
	for _, i := range band {
		t, ok := byOp[ops[i].op]
		hello, ok2 := helloAt[ops[i].op]
		if !ok || !ok2 {
			continue
		}
		rel := func(x time.Time) int64 { return int64(x.Sub(ring.base)) }
		disc := discovery[ops[i].op]
		sum["dial_us"] += float64(rel(t.dialed) - rel(t.start))
		sum["discovery_us"] += float64(disc)
		sum["hello_us"] += float64(hello - rel(t.dialed) - disc)
		sum["assemble_us"] += float64(rel(t.connected) - hello)
		sum["first_rtt_us"] += float64(rel(t.first) - rel(t.connected))
		sum["later_rtts_us"] += float64(rel(t.echoed) - rel(t.first))
		sum["close_us"] += float64(rel(t.closed) - rel(t.echoed))
		total += float64(rel(t.closed) - rel(t.start))
		n++
	}
	d := float64(max(n, 1)) * 1e3
	for k := range sum {
		sum[k] /= d
	}
	return sum, total / d
}

// setupTraced builds the traced variant of a workload.
func setupTraced(name string, cfg runConfig) (*tracedWorld, error) {
	switch name {
	case "echo_small":
		return setupEchoTraced(cfg, 64)
	case "echo_16k":
		return setupEchoTraced(cfg, 16<<10)
	case "kv_ycsb_a":
		return setupKVTraced(cfg)
	case "connect_churn":
		return setupChurnTraced(cfg)
	}
	return nil, fmt.Errorf("no traced variant of %q", name)
}

// runTraced is a traced run: a short untraced pass for the overhead
// ratio and the untraced extras, the traced pass, and the layer pass.
// It returns every per-layer metric by name.
func runTraced(w workloadDef, cfg runConfig, seconds float64) (values map[string]float64, plain runResult, err error) {
	defer watchdog(w.name+" traced", time.Duration(seconds*float64(time.Second))+90*time.Second)()
	values = map[string]float64{}

	warm, seg := timing(seconds * 0.3)
	if plain, err = measure(w, cfg, warm, seg); err != nil {
		return nil, plain, err
	}
	for _, m := range untracedExtras {
		values[m.Name] = plain.Metrics[m.Name].Median
	}

	tw, err := setupTraced(w.name, cfg)
	if err != nil {
		return nil, plain, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	rows, p50, _ := tracePass(tw, time.Duration(seconds*0.25*float64(time.Second)))
	for k, v := range rows {
		values[traceName(w.name, k)] = v
	}
	if base := plain.Metrics["op_p50_us"].Median; base > 0 {
		values[traceName(w.name, "overhead_ratio")] = p50 / base
	}

	for k, v := range runLayers(time.Duration(seconds / 75 * float64(time.Second))) {
		values[k] = v
	}
	return values, plain, nil
}

// writeSpans dumps spans as JSON lines, for whoever wants to look at the
// median band's ops one by one.
func writeSpans(path string, layers []string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		name := fmt.Sprintf("row%d", s.layer)
		if s.dir != dirNone && int(s.layer) < len(layers) {
			name = layers[s.layer]
		}
		parent := ""
		if s.dir != dirNone && s.layer > 0 && int(s.layer) <= len(layers) {
			parent = layers[s.layer-1]
		}
		rec := map[string]any{"name": name, "parent": parent, "op": s.op, "start_ns": s.start,
			"end_ns": s.end, "side": s.side, "dir": s.dir}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
