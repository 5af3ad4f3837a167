package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/crypt"
	"github.com/bertha-net/bertha/internal/chunnels/framing"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/stats"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// StackConfig parameterizes the zero-copy stack experiment.
type StackConfig struct {
	// Messages is the number of round trips measured per scenario.
	Messages int
	// Size is the request payload size in bytes.
	Size int
	// JSON selects machine-readable output (one JSON document instead
	// of the table).
	JSON bool
	// Telemetry adds an instrumented scenario (every layer of a
	// serialize→encrypt→http2→udp stack wrapped in the telemetry
	// recorder) and prints the per-layer latency attribution: each
	// chunnel's inclusive p50/p95 and its exclusive share of the send
	// path, the runtime's answer to "where does the time go".
	Telemetry bool
	// Tracing adds a traced scenario: the trace chunnel in the stack's
	// innermost slot, one request in traceSampleInterval stamped with an
	// in-band context, every layer recording spans into a shared ring.
	// The output reassembles the spans into per-message trees and prints
	// the waterfall plus a per-hop exclusive-latency attribution that
	// telescopes to the measured end-to-end latency — replacing the
	// quantile-subtraction heuristic of the Telemetry scenario.
	Tracing bool
}

func (c *StackConfig) fill() {
	if c.Messages <= 0 {
		c.Messages = 5000
	}
	if c.Size <= 0 {
		c.Size = 64
	}
}

// StackResult is one scenario's measurement: allocation cost per round
// trip alongside the latency distribution.
type StackResult struct {
	Scenario     string       `json:"scenario"`
	Messages     int          `json:"messages"`
	PayloadBytes int          `json:"payload_bytes"`
	AllocsPerOp  float64      `json:"allocs_per_op"`
	BytesPerOp   float64      `json:"bytes_per_op"`
	Latency      stackLatency `json:"latency_us"`
}

type stackLatency struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P5   float64 `json:"p5"`
	P25  float64 `json:"p25"`
	P50  float64 `json:"p50"`
	P75  float64 `json:"p75"`
	P95  float64 `json:"p95"`
}

func toStackLatency(s stats.Summary) stackLatency {
	return stackLatency{N: s.Count, Mean: s.Mean, P5: s.P5, P25: s.P25, P50: s.P50, P75: s.P75, P95: s.P95}
}

// Stack measures the pooled-buffer data plane: echo round trips over the
// serialize→framing→udp stack, once through the zero-copy SendBuf/RecvBuf
// path (headers prepended into headroom, one pooled buffer end to end)
// and once through the plain Send/Recv path (which copies at the
// ownership boundary). It reports allocations and bytes allocated per
// round trip next to the latency distribution — the cost the tentpole
// removes is visible as the allocs/op difference between the rows.
func Stack(w io.Writer, cfg StackConfig) error {
	cfg.fill()

	type scenario struct {
		name string
		run  func(cfg StackConfig) (StackResult, error)
	}
	scenarios := []scenario{
		{name: "zero-copy-bufs", run: runStackBufs},
		{name: "copy-per-message", run: runStackCopy},
	}
	var instrumented *telemetry.Registry
	if cfg.Telemetry {
		instrumented = telemetry.New()
		scenarios = append(scenarios, scenario{
			name: "instrumented-zero-copy",
			run: func(cfg StackConfig) (StackResult, error) {
				return runStackInstrumented(cfg, instrumented)
			},
		})
	}
	var traceOut *stackTrace
	if cfg.Tracing {
		scenarios = append(scenarios, scenario{
			name: "traced-zero-copy",
			run: func(cfg StackConfig) (StackResult, error) {
				res, out, err := runStackTraced(cfg, telemetry.New(), tracing.NewSpanRing(traceRingSize))
				traceOut = out
				return res, err
			},
		})
	}

	results := make([]StackResult, 0, len(scenarios))
	for _, sc := range scenarios {
		res, err := sc.run(cfg)
		if err != nil {
			return fmt.Errorf("stack %s: %w", sc.name, err)
		}
		res.Scenario = sc.name
		results = append(results, res)
	}

	if cfg.JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		doc := map[string]any{"experiment": "stack", "results": results}
		if instrumented != nil {
			doc["telemetry"] = instrumented.Snapshot()
		}
		if traceOut != nil {
			doc["trace"] = traceOut
		}
		return enc.Encode(doc)
	}
	table := stats.NewTable(
		fmt.Sprintf("stack: echo round trip, serialize→http2→udp, %d-byte requests", cfg.Size),
		"scenario", "n", "allocs/op", "B/op", "p50 (µs)", "p95 (µs)")
	for _, r := range results {
		table.AddRow(r.Scenario, r.Messages, r.AllocsPerOp, r.BytesPerOp, r.Latency.P50, r.Latency.P95)
	}
	table.Render(w)
	if instrumented != nil {
		io.WriteString(w, "\n")
		writeAttribution(w, instrumented)
	}
	if traceOut != nil {
		io.WriteString(w, "\n")
		writeTracedAttribution(w, traceOut)
		writeTracedWaterfall(w, traceOut)
	}
	return nil
}

// stackTelemetryOrder is the instrumented stack outermost-first; the
// attribution table subtracts each layer's inner neighbour to turn the
// inclusive latencies into exclusive shares.
var stackTelemetryOrder = []struct{ chunnel, impl string }{
	{"serialize", "serialize/bincode"},
	{"encrypt", "encrypt/aesgcm"},
	{"http2", "http2/sw"},
	{"transport", "udp"},
}

// writeAttribution renders the per-chunnel send-latency attribution from
// an instrumented run: inclusive p50/p95 per layer, and each layer's
// exclusive p95 share (inclusive p95 minus the next layer in).
func writeAttribution(w io.Writer, reg *telemetry.Registry) {
	table := stats.NewTable(
		"stack: per-chunnel send-latency attribution (client side)",
		"chunnel", "impl", "sends", "incl p50 (µs)", "incl p95 (µs)", "excl p95 (µs)", "share")
	incl := make([]float64, len(stackTelemetryOrder))
	sends := make([]uint64, len(stackTelemetryOrder))
	snaps := make([]telemetry.HistogramSnapshot, len(stackTelemetryOrder))
	for i, l := range stackTelemetryOrder {
		m := reg.Conn(l.chunnel, l.impl)
		sends[i] = m.Sends.Value()
		snaps[i] = m.SendLatency.Snapshot()
		incl[i] = snaps[i].Quantile(0.95)
	}
	total := incl[0]
	for i, l := range stackTelemetryOrder {
		excl := incl[i]
		if i+1 < len(incl) {
			excl -= incl[i+1]
		}
		if excl < 0 {
			excl = 0 // quantile subtraction can go slightly negative
		}
		share := 0.0
		if total > 0 {
			share = excl / total
		}
		table.AddRow(l.chunnel, l.impl, sends[i],
			snaps[i].Quantile(0.50), incl[i], excl, fmt.Sprintf("%.0f%%", share*100))
	}
	table.Render(w)
}

// stackPair builds the serialize→framing→udp stack on both ends of a
// connected loopback UDP pair (connected sockets keep the receive path
// allocation-free; the demux listener would pay a source address per
// datagram).
func stackPair() (cli, srv core.Conn, err error) {
	a, b, err := transport.UDPPair("cli", "srv")
	if err != nil {
		return nil, nil, err
	}
	wrap := func(c core.Conn) (core.Conn, error) {
		f, err := framing.New(c, framing.DefaultMaxFrame)
		if err != nil {
			return nil, err
		}
		return serialize.New(f, serialize.FormatBincode)
	}
	if cli, err = wrap(a); err != nil {
		a.Close()
		b.Close()
		return nil, nil, err
	}
	if srv, err = wrap(b); err != nil {
		cli.Close()
		b.Close()
		return nil, nil, err
	}
	return cli, srv, nil
}

// measureStack runs warmup + cfg.Messages round trips and samples the
// allocator around the measured window.
func measureStack(cfg StackConfig, roundTrip func() error) (StackResult, error) {
	warm := cfg.Messages / 10
	if warm < 10 {
		warm = 10
	}
	for i := 0; i < warm; i++ {
		if err := roundTrip(); err != nil {
			return StackResult{}, err
		}
	}

	rec := stats.NewRecorder(cfg.Messages)
	runtime.GC() // settle the allocator so the malloc delta is ours
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cfg.Messages; i++ {
		t0 := time.Now()
		if err := roundTrip(); err != nil {
			return StackResult{}, err
		}
		rec.Record(time.Since(t0))
	}
	runtime.ReadMemStats(&m1)

	// The recorder's sample array is pre-allocated before the window, so
	// the malloc delta is the data path's alone.
	n := float64(cfg.Messages)
	return StackResult{
		Messages:     cfg.Messages,
		PayloadBytes: cfg.Size,
		AllocsPerOp:  float64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerOp:   float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		Latency:      toStackLatency(rec.Summarize()),
	}, nil
}

// runStackBufs measures the zero-copy path: pooled buffers all the way,
// headers prepended into reserved headroom, echo without copying.
func runStackBufs(cfg StackConfig) (StackResult, error) {
	cli, srv, err := stackPair()
	if err != nil {
		return StackResult{}, err
	}
	defer cli.Close()
	defer srv.Close()
	ctx := context.Background()
	go func() {
		for {
			b, err := core.RecvBuf(ctx, srv)
			if err != nil {
				return
			}
			if core.SendBuf(ctx, srv, b) != nil {
				return
			}
		}
	}()

	payload := make([]byte, cfg.Size)
	headroom := core.HeadroomOf(cli)
	return measureStack(cfg, func() error {
		b := wire.NewBufFrom(headroom, payload)
		if err := core.SendBuf(ctx, cli, b); err != nil {
			return err
		}
		r, err := core.RecvBuf(ctx, cli)
		if err != nil {
			return err
		}
		r.Release()
		return nil
	})
}

// stackPairInstrumented builds a serialize→encrypt→http2→udp stack with
// every layer wrapped in the telemetry recorder, mirroring what
// core.assemble does to negotiated stacks. Only the client side records
// into reg so the attribution reflects one direction.
func stackPairInstrumented(reg *telemetry.Registry) (cli, srv core.Conn, err error) {
	a, b, err := transport.UDPPair("cli", "srv")
	if err != nil {
		return nil, nil, err
	}
	key := []byte("bench-attribution-key")
	wrap := func(c core.Conn, record bool) (core.Conn, error) {
		inst := func(conn core.Conn, chunnel, impl string) core.Conn {
			if !record {
				return conn
			}
			return core.Instrument(conn, reg.Conn(chunnel, impl))
		}
		c = inst(c, "transport", "udp")
		f, err := framing.New(c, framing.DefaultMaxFrame)
		if err != nil {
			return nil, err
		}
		e, err := crypt.New(inst(f, "http2", "http2/sw"), key)
		if err != nil {
			return nil, err
		}
		s, err := serialize.New(inst(e, "encrypt", "encrypt/aesgcm"), serialize.FormatBincode)
		if err != nil {
			return nil, err
		}
		return inst(s, "serialize", "serialize/bincode"), nil
	}
	if cli, err = wrap(a, true); err != nil {
		a.Close()
		b.Close()
		return nil, nil, err
	}
	if srv, err = wrap(b, false); err != nil {
		cli.Close()
		b.Close()
		return nil, nil, err
	}
	return cli, srv, nil
}

// runStackInstrumented measures the zero-copy path with the full
// telemetry stack enabled; the delta against zero-copy-bufs is the
// observability overhead, and reg afterwards holds the per-layer
// attribution.
func runStackInstrumented(cfg StackConfig, reg *telemetry.Registry) (StackResult, error) {
	cli, srv, err := stackPairInstrumented(reg)
	if err != nil {
		return StackResult{}, err
	}
	defer cli.Close()
	defer srv.Close()
	ctx := context.Background()
	go func() {
		for {
			b, err := core.RecvBuf(ctx, srv)
			if err != nil {
				return
			}
			if core.SendBuf(ctx, srv, b) != nil {
				return
			}
		}
	}()

	payload := make([]byte, cfg.Size)
	headroom := core.HeadroomOf(cli)
	return measureStack(cfg, func() error {
		b := wire.NewBufFrom(headroom, payload)
		if err := core.SendBuf(ctx, cli, b); err != nil {
			return err
		}
		r, err := core.RecvBuf(ctx, cli)
		if err != nil {
			return err
		}
		r.Release()
		return nil
	})
}

// runStackCopy measures the plain []byte path: Send/Recv on the same
// stack, paying a copy (and allocation) at each ownership boundary.
func runStackCopy(cfg StackConfig) (StackResult, error) {
	cli, srv, err := stackPair()
	if err != nil {
		return StackResult{}, err
	}
	defer cli.Close()
	defer srv.Close()
	ctx := context.Background()
	go func() {
		for {
			m, err := srv.Recv(ctx)
			if err != nil {
				return
			}
			if srv.Send(ctx, m) != nil {
				return
			}
		}
	}()

	payload := make([]byte, cfg.Size)
	return measureStack(cfg, func() error {
		if err := cli.Send(ctx, payload); err != nil {
			return err
		}
		_, err := cli.Recv(ctx)
		return err
	})
}
