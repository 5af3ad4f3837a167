package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/bertha/transport"
	"github.com/bertha-net/bertha/internal/chunnels/crypt"
	"github.com/bertha-net/bertha/internal/chunnels/framing"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/discovery"
	"github.com/bertha-net/bertha/internal/kv"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	itransport "github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
	"github.com/bertha-net/bertha/internal/xdp"
	"github.com/bertha-net/bertha/internal/ycsb"
)

// The layer pass times calls into one layer's public functions in
// isolation. A "message" is one echoed message: request and echo, so a
// layer is crossed four times (send, receive, send, receive) and the
// rows add up to a round trip. Chunnel, instrument and coalescer rows
// run both ends on one goroutine over an in-process pipe and subtract
// the bare pipe (transport.pipe.rtt_us_64 and its 16 KiB sibling), so no
// scheduler noise enters them; socket rows cross real goroutines and
// sockets and are not subtracted.

var bg = context.Background()

// timedReps is how many repetitions a row's budget is split into. The
// fastest repetition is reported: interference (GC, the scheduler,
// another process) only ever adds time, so the minimum is the steadiest
// estimate of the code's own cost, and differences of two minima (a row
// less its baseline) stay meaningful where differences of means do not.
const timedReps = 5

// timed runs f for about budget and returns the time and the heap
// allocations per call of the fastest of timedReps repetitions.
func timed(budget time.Duration, f func()) (ns, allocs float64) {
	f() // warm: pools, lazy set-up
	// Size a repetition: grow n until one takes a rep's share.
	rep := budget / timedReps
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		el := time.Since(t0)
		if el >= rep/2 || n >= 1<<28 {
			n = max(int(float64(n)*float64(rep)/float64(max(el, time.Microsecond))), 1)
			break
		}
		n *= 4
	}
	ns = -1
	for r := 0; r < timedReps; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		el := float64(time.Since(t0)) / float64(n)
		runtime.ReadMemStats(&m1)
		if ns < 0 || el < ns {
			ns, allocs = el, float64(m1.Mallocs-m0.Mallocs)/float64(n)
		}
	}
	return ns, allocs
}

// layerPass holds what the rows share.
type layerPass struct {
	budget time.Duration
	dir    string
	out    map[string]float64
	p64    []byte
	p16k   []byte
	// pipe round-trip baselines (ns) by payload size, and their allocs.
	pipeNS, pipeAllocs map[int]float64
}

// runLayers runs every row for about budget each and returns them by
// name. Rows that cannot be set up are reported as 0 with a note on
// standard error rather than failing the run.
func runLayers(budget time.Duration) map[string]float64 {
	defer watchdog("layer pass", 60*budget*3+60*time.Second)()
	dir, err := os.MkdirTemp(buildDir(), "layers")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: layer pass: %v\n", err)
		return map[string]float64{}
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(1)) // layer rows time code, not data: a fixed seed
	lp := &layerPass{budget: budget, dir: dir, out: map[string]float64{},
		p64: make([]byte, 64), p16k: make([]byte, 16<<10),
		pipeNS: map[int]float64{}, pipeAllocs: map[int]float64{}}
	rng.Read(lp.p64)
	rng.Read(lp.p16k)
	for _, step := range []func() error{
		lp.pipeRows, lp.wireRows, lp.udpRows, lp.unixRow, lp.reactorRows,
		lp.chunnelRows, lp.shardRows, lp.kvRows, lp.negotiateRows,
		lp.smallRows, lp.spliceRow, lp.coalesceRows,
	} {
		if err := step(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: layer pass: %v\n", err)
		}
	}
	for _, m := range layerRows {
		if _, ok := lp.out[m.Name]; !ok {
			lp.out[m.Name] = 0
		}
	}
	return lp.out
}

func printLayers(w io.Writer) error {
	rows := runLayers(200 * time.Millisecond)
	for _, m := range layerRows {
		fmt.Fprintf(w, "%-44s %14.3f %s\n", m.Name, rows[m.Name], m.Unit)
	}
	return nil
}

// pingPong is one echoed message with both ends on this goroutine.
func pingPong(a, b core.Conn, p []byte) {
	must(a.Send(bg, p))
	m, err := b.Recv(bg)
	must(err)
	must(b.Send(bg, m))
	_, err = a.Recv(bg)
	must(err)
}

// must panics: inside the layer pass a failed call on an in-process
// pipe or a fresh loopback socket is a bug in the benchmark or the
// library, and the watchdog-free alternative would be silent zeros.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("layer pass: %v", err))
	}
}

func newPipe() (core.Conn, core.Conn) {
	return transport.Pipe(bertha.Addr{Net: "pipe", Addr: "a"}, bertha.Addr{Net: "pipe", Addr: "b"}, 0)
}

func (lp *layerPass) pipeRows() error {
	for _, p := range [][]byte{lp.p64, lp.p16k} {
		a, b := newPipe()
		lp.pipeNS[len(p)], lp.pipeAllocs[len(p)] = timed(lp.budget, func() { pingPong(a, b, p) })
		a.Close()
		b.Close()
	}
	lp.out["transport.pipe.rtt_us_64"] = lp.pipeNS[64] / 1e3
	return nil
}

func (lp *layerPass) wireRows() error {
	ns, allocs := timed(lp.budget, func() { wire.NewBuf(wire.DefaultHeadroom, 64).Release() })
	lp.out["wire.buf_get_release_ns"] = ns
	lp.out["wire.allocs_per_buf"] = allocs
	return nil
}

// echoBufs echoes on c over the zero-copy path until a call fails, or
// once and no more when once is set.
func echoBufs(ctx context.Context, c core.Conn, once bool) {
	for {
		b, err := core.RecvBuf(ctx, c)
		if err != nil || core.SendBuf(ctx, c, b) != nil || once {
			return
		}
	}
}

// echoLoop echoes on c until it closes; the returned func waits for it.
func echoLoop(c core.Conn) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		echoBufs(bg, c, false)
	}()
	return func() { <-done }
}

// bufRoundTrip is one echoed message over the zero-copy path.
func bufRoundTrip(c core.Conn, p []byte) {
	must(core.SendBuf(bg, c, wire.NewBufFrom(core.HeadroomOf(c), p)))
	b, err := core.RecvBuf(bg, c)
	must(err)
	b.Release()
}

func (lp *layerPass) udpRows() error {
	a, b, err := itransport.UDPPair("a", "b")
	if err != nil {
		return err
	}
	wait := echoLoop(b)
	defer func() { a.Close(); b.Close(); wait() }()
	ns, allocs := timed(lp.budget, func() { bufRoundTrip(a, lp.p64) })
	lp.out["transport.udp.rtt_us_64"] = ns / 1e3
	lp.out["transport.udp.allocs_per_msg"] = allocs
	sent := telemetry.Default().Counter("transport/udp/datagrams_sent")
	before, rtts := sent.Value(), 0
	ns, _ = timed(lp.budget, func() { bufRoundTrip(a, lp.p16k); rtts++ })
	lp.out["transport.udp.rtt_us_16k"] = ns / 1e3
	lp.out["transport.udp.datagrams_per_msg_16k"] = float64(sent.Value()-before) / float64(2*rtts)

	// One-way bursts of 32 between a second pair, both ends here.
	c, d, err := itransport.UDPPair("c", "d")
	if err != nil {
		return err
	}
	defer func() { c.Close(); d.Close() }()
	const burst = 32
	bufs, into := make([]*wire.Buf, burst), make([]*wire.Buf, burst)
	ns, _ = timed(lp.budget, func() {
		for i := range bufs {
			bufs[i] = wire.NewBufFrom(0, lp.p64)
		}
		must(core.SendBufs(bg, c, bufs))
		for got := 0; got < burst; {
			n, err := core.RecvBufs(bg, d, into)
			must(err)
			core.ReleaseAll(into[:n])
			got += n
		}
	})
	lp.out["transport.udp.burst32_ns_per_msg"] = ns / burst
	return nil
}

// acceptEcho serves l: every accepted connection echoes until closed, or
// once and then closes when once is set.
func acceptEcho(l core.Listener, once bool) (stop func()) {
	ctx, cancel := context.WithCancel(bg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				echoBufs(ctx, c, once)
			}()
		}
	}()
	return func() { cancel(); l.Close(); <-done }
}

func (lp *layerPass) unixRow() error {
	path := filepath.Join(lp.dir, "u.sock")
	l, err := transport.ListenUnix("box", path)
	if err != nil {
		return err
	}
	defer acceptEcho(l, false)()
	c, err := transport.DialUnix("box", path)
	if err != nil {
		return err
	}
	defer c.Close()
	ns, _ := timed(lp.budget, func() { bufRoundTrip(c, lp.p64) })
	lp.out["transport.unix.rtt_us_64"] = ns / 1e3
	return nil
}

func (lp *layerPass) reactorRows() error {
	l, err := transport.ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer acceptEcho(l, false)()
	c, err := transport.DialUDP("cli", l.Addr().Addr)
	if err != nil {
		return err
	}
	ns, _ := timed(lp.budget, func() { bufRoundTrip(c, lp.p64) })
	c.Close()
	lp.out["transport.reactor.rtt_us_64"] = ns / 1e3

	// A new peer's first round trip: dial, materialise, accept, echo.
	l2, err := transport.ListenUDP("srv", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer acceptEcho(l2, true)()
	ns, _ = timed(lp.budget, func() {
		c, err := transport.DialUDP("cli", l2.Addr().Addr)
		must(err)
		bufRoundTrip(c, lp.p64)
		c.Close()
	})
	lp.out["transport.reactor.accept_us"] = ns / 1e3
	return nil
}

// overPipe times one echoed message through wrap at both ends of a
// pipe, less the bare pipe.
func (lp *layerPass) overPipe(wrap func(core.Conn) (core.Conn, error), p []byte) (ns, allocs float64, err error) {
	a, b := newPipe()
	defer func() { a.Close(); b.Close() }()
	ca, err := wrap(a)
	if err != nil {
		return 0, 0, err
	}
	cb, err := wrap(b)
	if err != nil {
		return 0, 0, err
	}
	ns, allocs = timed(lp.budget, func() { pingPong(ca, cb, p) })
	return max(ns-lp.pipeNS[len(p)], 0), max(allocs-lp.pipeAllocs[len(p)], 0), nil
}

func (lp *layerPass) chunnelRows() error {
	key := []byte("layer pass key")
	chunnels := []struct {
		name string
		wrap func(core.Conn) (core.Conn, error)
	}{
		{"serialize", func(c core.Conn) (core.Conn, error) { return serialize.New(c, serialize.FormatBincode) }},
		{"crypt", func(c core.Conn) (core.Conn, error) { return crypt.New(c, key) }},
		{"framing", func(c core.Conn) (core.Conn, error) { return framing.New(c, echoFrame) }},
	}
	for _, ch := range chunnels {
		ns, allocs, err := lp.overPipe(ch.wrap, lp.p64)
		if err != nil {
			return err
		}
		lp.out["chunnels."+ch.name+".ns_per_msg_64"] = ns
		lp.out["chunnels."+ch.name+".allocs_per_msg"] = allocs
		if ns, _, err = lp.overPipe(ch.wrap, lp.p16k); err != nil {
			return err
		}
		lp.out["chunnels."+ch.name+".ns_per_msg_16k"] = ns
	}
	// Frames per 16 KiB message: what the pipe below the framing carried.
	sent := telemetry.Default().Counter("transport/pipe/datagrams_sent")
	a, b := newPipe()
	defer func() { a.Close(); b.Close() }()
	fa, _ := framing.New(a, echoFrame)
	fb, _ := framing.New(b, echoFrame)
	before := sent.Value()
	pingPong(fa, fb, lp.p16k)
	lp.out["chunnels.framing.frames_per_msg_16k"] = float64(sent.Value()-before) / 2
	return nil
}

// shardRows times one KV GET through each steering path over an
// in-process pipe network, less the bare pipe: what is left is the shard
// chunnel, the core wrappers around it, the store, and the goroutine
// hand-offs the path needs (fan-in for push; pump and queue for steer).
func (lp *layerPass) shardRows() error {
	pn := transport.NewPipeNetwork()
	n := 0
	net := kvNet{
		listen: func() (bertha.Listener, error) { n++; return pn.Listen("srv", fmt.Sprintf("l%d", n)) },
		dial: func(host string, addr bertha.Addr) (bertha.Conn, error) {
			return pn.DialFrom(bg, host, addr)
		},
	}
	srv, err := startKVServer(1, net, kvHooks{})
	if err != nil {
		return err
	}
	defer srv.close()
	enc := wire.NewEncoder(nil)
	if err := kv.EncodeRequest(enc, kv.Request{ID: 7, Op: kv.OpGet, Key: ycsb.Key(42)}); err != nil {
		return err
	}
	req := enc.Bytes()
	for _, path := range []struct {
		row  string
		push bool
	}{{"chunnels.shard.push_ns_per_msg", true}, {"chunnels.shard.steer_ns_per_msg", false}} {
		conn, err := connectKV("layer", srv.addr, net, path.push, clientDialer{net, "cli-layer"}, nil)
		if err != nil {
			return err
		}
		ns, _ := timed(lp.budget, func() {
			must(conn.Send(bg, req))
			_, err := conn.Recv(bg)
			must(err)
		})
		conn.Close()
		lp.out[path.row] = max(ns-lp.pipeNS[64], 0)
	}
	return nil
}

func (lp *layerPass) kvRows() error {
	hook := xdp.NewHook("layer-pass")
	if err := hook.Attach(xdp.SteerProgram("steer", kv.ShardFunc(kvShards))); err != nil {
		return err
	}
	enc := wire.NewEncoder(nil)
	upd := kv.Request{ID: 7, Op: kv.OpUpdate, Key: ycsb.Key(42), Value: bytes.Repeat([]byte{1}, kvValue)}
	if err := kv.EncodeRequest(enc, upd); err != nil {
		return err
	}
	raw := append([]byte(nil), enc.Bytes()...)
	const burst = 32
	pkts, verdicts := make([]xdp.Packet, burst), make([]xdp.Verdict, burst)
	ns, _ := timed(lp.budget, func() {
		for i := range pkts {
			pkts[i] = xdp.Packet{Data: raw}
		}
		hook.RunBurst(pkts, verdicts)
	})
	lp.out["xdp.run_burst_ns_per_pkt"] = ns / burst

	store := kv.NewStore()
	for i := 0; i < kvRecords; i++ {
		store.Apply(kv.Request{Op: kv.OpPut, Key: ycsb.Key(i), Value: upd.Value})
	}
	get := kv.Request{ID: 8, Op: kv.OpGet, Key: upd.Key}
	ns, _ = timed(lp.budget, func() { store.Apply(upd); store.Apply(get) })
	lp.out["kv.store_apply_ns"] = ns / 2

	resp := kv.Response{ID: 8, Status: kv.StatusOK, Value: upd.Value}
	ns, _ = timed(lp.budget, func() {
		enc.Reset()
		must(kv.EncodeRequest(enc, upd))
		_, err := kv.DecodeRequest(enc.Bytes())
		must(err)
		enc.Reset()
		kv.EncodeResponse(enc, resp)
		_, err = kv.DecodeResponse(enc.Bytes())
		must(err)
	})
	lp.out["kv.codec_ns"] = ns
	return nil
}

// countConn counts the bytes a handshake puts on the wire.
type countConn struct {
	core.Conn
	bytes int
}

func (c *countConn) Send(ctx context.Context, p []byte) error {
	c.bytes += len(p)
	return c.Conn.Send(ctx, p)
}

func (c *countConn) Recv(ctx context.Context) ([]byte, error) {
	p, err := c.Conn.Recv(ctx)
	c.bytes += len(p)
	return p, err
}

// negotiateRows times Connect and Close for the echo workloads' stack
// over a pipe network: the handshake without the sockets.
func (lp *layerPass) negotiateRows() error {
	pn := transport.NewPipeNetwork()
	key := []byte("layer pass key")
	regS, regC := bertha.NewRegistry(), bertha.NewRegistry()
	bertha.RegisterStandard(regS)
	bertha.RegisterStandard(regC)
	srvEp, err := bertha.New("srv", echoStack(key), bertha.WithRegistry(regS), bertha.WithEnv(bertha.NewEnv("srv")))
	if err != nil {
		return err
	}
	base, err := pn.Listen("srv", "neg")
	if err != nil {
		return err
	}
	nl, err := srvEp.Listen(bg, base)
	if err != nil {
		return err
	}
	srv := serveEcho(nl, 0)
	defer srv.close()
	cli, err := bertha.New("cli", bertha.Wrap(), bertha.WithRegistry(regC), bertha.WithEnv(bertha.NewEnv("cli")))
	if err != nil {
		return err
	}
	var connect, closing time.Duration
	wireBytes, n := 0, 0
	_, allocs := timed(lp.budget, func() {
		raw, err := pn.DialFrom(bg, "cli", base.Addr())
		must(err)
		counted := &countConn{Conn: raw}
		t0 := time.Now()
		conn, err := cli.Connect(bg, counted)
		must(err)
		t1 := time.Now()
		must(conn.Close())
		connect += t1.Sub(t0)
		closing += time.Since(t1)
		wireBytes = counted.bytes
		n++
	})
	lp.out["core.negotiate.handshake_us"] = float64(connect) / float64(n) / 1e3
	lp.out["core.close_us"] = float64(closing) / float64(n) / 1e3
	lp.out["core.negotiate.allocs_per_handshake"] = allocs
	lp.out["core.negotiate.wire_bytes"] = float64(wireBytes)
	return nil
}

// smallRows are the single-function rows.
func (lp *layerPass) smallRows() error {
	svc := discovery.NewService()
	for i, typ := range []string{"encrypt", "http2", "shard", "serialize"} {
		offer := core.ImplOffer{Name: fmt.Sprintf("%s/offload%d", typ, i), Type: typ, Location: core.LocSmartNIC}
		if err := svc.Register(offer, 1024, 0); err != nil {
			return err
		}
	}
	ns, _ := timed(lp.budget, func() {
		_, err := svc.Query(bg, []string{"encrypt"})
		must(err)
	})
	lp.out["discovery.query_us"] = ns / 1e3

	stack := echoStack([]byte("layer pass key"))
	enc := wire.NewEncoder(nil)
	ns, _ = timed(lp.budget, func() {
		enc.Reset()
		stack.Encode(enc)
		d := wire.NewDecoder(enc.Bytes())
		spec.DecodeStack(d)
		must(d.Err())
	})
	lp.out["spec.encode_decode_ns"] = ns

	m := telemetry.New().Conn("layer", "pass")
	ns, _, err := lp.overPipe(func(c core.Conn) (core.Conn, error) { return core.Instrument(c, m), nil }, lp.p64)
	if err != nil {
		return err
	}
	lp.out["core.instrument.ns_per_msg"] = ns

	var h telemetry.Histogram
	d := 17 * time.Microsecond
	ns, _ = timed(lp.budget, func() { h.Observe(d) })
	lp.out["telemetry.histogram_record_ns"] = ns

	gen, err := ycsb.NewGenerator(ycsb.Config{Workload: ycsb.WorkloadA, Records: kvRecords, ValueSize: kvValue, Seed: 1})
	if err != nil {
		return err
	}
	ns, _ = timed(lp.budget, func() { gen.Next() })
	lp.out["ycsb.next_ns"] = ns
	return nil
}

// firstRecvConn notes when its first receive returned: on a raw
// connection handed to Connect, that is the ServerHello's arrival.
type firstRecvConn struct {
	core.Conn
	at time.Time
}

func (c *firstRecvConn) Recv(ctx context.Context) ([]byte, error) {
	p, err := c.Conn.Recv(ctx)
	if err == nil && c.at.IsZero() {
		c.at = time.Now()
	}
	return p, err
}

// spliceRow is what the unix splice adds to a handshake on the client:
// the time from the ServerHello's arrival to Connect's return (dial the
// IPC socket, present the token) for a client on the server's host, less
// the same stretch for a client elsewhere, which stays on UDP.
func (lp *layerPass) spliceRow() error {
	srv, err := startChurnServer(lp.dir, nil)
	if err != nil {
		return err
	}
	defer srv.close()
	var assembleNS [2]float64
	for i, host := range []string{churnHost, "elsewhere"} {
		c, err := newChurnClient("layer", host, srv.addr, rand.New(rand.NewSource(1)))
		if err != nil {
			return err
		}
		var total time.Duration
		n := 0
		timed(lp.budget, func() {
			raw, err := transport.DialUDP(host, srv.addr)
			must(err)
			stamped := &firstRecvConn{Conn: raw}
			conn, err := c.ep.Connect(bg, stamped)
			must(err)
			total += time.Since(stamped.at)
			n++
			conn.Close()
		})
		assembleNS[i] = float64(total) / float64(n)
	}
	lp.out["chunnels.localfast.splice_us"] = max(assembleNS[0]-assembleNS[1], 0) / 1e3
	return nil
}

// coalesceRows time the coalescer's two paths over a pipe, one way,
// less the bare pipe's one-way cost. It is off in every workload today.
func (lp *layerPass) coalesceRows() error {
	const batch = 64
	oneWay := func(send core.Conn, recv core.Conn, flush func()) float64 {
		ns, _ := timed(lp.budget, func() {
			for i := 0; i < batch; i++ {
				must(core.SendBuf(bg, send, wire.NewBufFrom(core.HeadroomOf(send), lp.p64)))
			}
			flush()
			for i := 0; i < batch; i++ {
				b, err := core.RecvBuf(bg, recv)
				must(err)
				b.Release()
			}
		})
		return ns / batch
	}
	a, b := newPipe()
	base := oneWay(a, b, func() {})
	a.Close()
	b.Close()
	for _, row := range []struct {
		name string
		cfg  core.CoalesceConfig
	}{
		// An idle window of 1 ns makes every send an idle send: the
		// bypass path. The default window makes back-to-back sends queue.
		{"core.coalesce.idle_ns_per_msg", core.CoalesceConfig{Idle: time.Nanosecond}},
		{"core.coalesce.sustained_ns_per_msg", core.CoalesceConfig{}},
	} {
		a, b := newPipe()
		co := core.NewCoalescer(a, row.cfg, telemetry.New())
		ns := oneWay(co, b, func() { must(co.Flush(bg)) })
		co.Close()
		b.Close()
		lp.out[row.name] = max(ns-base, 0)
	}
	return nil
}
