package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/framing"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/chunnels/traced"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/stats"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// traceSampleInterval is the bench sampling rate: one request in this
// many carries a trace context end to end.
const traceSampleInterval = 16

// traceRingSize holds the full sampled volume of a default run (5000
// messages / 16 sampled × ~8 spans each) without wrapping.
const traceRingSize = 8192

// stackTrace is the traced scenario's reassembly report: how many
// sampled requests produced a complete client→server span tree, and how
// close the tree's per-hop exclusive latencies come to the end-to-end
// latency measured independently at the application layer. A mean ratio
// near 1.0 is the tentpole's acceptance bar — attribution accounts for
// the whole journey, not a subtraction heuristic's approximation of it.
type stackTrace struct {
	SampleInterval int     `json:"sample_interval"`
	SampledSends   int     `json:"sampled_sends"`
	CompleteTrees  int     `json:"complete_trees"`
	MeanRatio      float64 `json:"mean_attribution_ratio"`
	SpanTotal      uint64  `json:"span_total"`

	trees []tracing.Tree
}

// stackPairTraced builds the traced echo stack on both ends: the trace
// chunnel sits in the innermost slot (directly above the transport),
// exactly where negotiation pins it, with every layer's instrument
// wrapper recording spans into one shared ring so the single-process
// bench can reassemble full trees. Client layers record metrics into
// reg; the server side keeps its own throwaway registry.
func stackPairTraced(reg *telemetry.Registry, ring *tracing.SpanRing) (cli, srv core.Conn, err error) {
	a, b, err := transport.UDPPair("cli", "srv")
	if err != nil {
		return nil, nil, err
	}
	srvReg := telemetry.New()
	wrap := func(c core.Conn, r *telemetry.Registry) (core.Conn, error) {
		inst := func(conn core.Conn, chunnel, impl string) core.Conn {
			return core.InstrumentTraced(conn, r.Conn(chunnel, impl), ring.Handle(chunnel, impl))
		}
		c = inst(c, "transport", "udp")
		c = inst(traced.New(c), "trace", core.TraceImplName)
		f, err := framing.New(c, framing.DefaultMaxFrame)
		if err != nil {
			return nil, err
		}
		s, err := serialize.New(inst(f, "http2", "http2/sw"), serialize.FormatBincode)
		if err != nil {
			return nil, err
		}
		return inst(s, "serialize", "serialize/bincode"), nil
	}
	if cli, err = wrap(a, reg); err != nil {
		a.Close()
		b.Close()
		return nil, nil, err
	}
	if srv, err = wrap(b, srvReg); err != nil {
		cli.Close()
		b.Close()
		return nil, nil, err
	}
	return cli, srv, nil
}

// runStackTraced measures the zero-copy path with in-band tracing live:
// every traceSampleInterval-th request is stamped with a fresh trace ID
// and timed independently at the application layer (t0 at send, t1 when
// the echo server's top of stack sees it). After the run the span ring
// is reassembled into trees and each complete tree's Σexclusive is
// compared against its independently measured end-to-end latency.
func runStackTraced(cfg StackConfig, reg *telemetry.Registry, ring *tracing.SpanRing) (StackResult, *stackTrace, error) {
	cli, srv, err := stackPairTraced(reg, ring)
	if err != nil {
		return StackResult{}, nil, err
	}
	defer cli.Close()
	defer srv.Close()
	ctx := context.Background()

	var mu sync.Mutex
	t0s := map[uint64]time.Time{}
	t1s := map[uint64]time.Time{}
	go func() {
		for {
			b, err := core.RecvBuf(ctx, srv)
			if err != nil {
				return
			}
			if id, _, _, ok := b.Trace(); ok {
				now := time.Now()
				mu.Lock()
				t1s[id] = now
				mu.Unlock()
				// The reply direction is not part of the traced request's
				// journey; echo it unsampled.
				b.ClearTrace()
			}
			if core.SendBuf(ctx, srv, b) != nil {
				return
			}
		}
	}()

	payload := make([]byte, cfg.Size)
	headroom := core.HeadroomOf(cli)
	sent, sampled := 0, 0
	res, err := measureStack(cfg, func() error {
		b := wire.NewBufFrom(headroom, payload)
		sent++
		if sent%traceSampleInterval == 1 {
			id := tracing.NewTraceID()
			b.SetTrace(id, 0, 0)
			sampled++
			// Pre-insert the key so any map growth happens before t0 is
			// captured; the measured end-to-end then excludes the bench's
			// own bookkeeping overhead.
			mu.Lock()
			t0s[id] = time.Time{}
			t0s[id] = time.Now()
			mu.Unlock()
		}
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
	if err != nil {
		return StackResult{}, nil, err
	}

	trees := tracing.BuildTrees(ring.Snapshot())
	out := &stackTrace{
		SampleInterval: traceSampleInterval,
		SampledSends:   sampled,
		SpanTotal:      ring.Total(),
		trees:          trees,
	}
	ratioSum := 0.0
	mu.Lock()
	defer mu.Unlock()
	for _, tr := range trees {
		if !tr.Complete {
			continue
		}
		t0, ok0 := t0s[tr.TraceID]
		t1, ok1 := t1s[tr.TraceID]
		if !ok0 || !ok1 || !t1.After(t0) {
			continue
		}
		out.CompleteTrees++
		ratioSum += float64(tr.ExclSum) / float64(t1.Sub(t0).Nanoseconds())
	}
	if out.CompleteTrees > 0 {
		out.MeanRatio = ratioSum / float64(out.CompleteTrees)
	}
	return res, out, nil
}

// writeTracedAttribution renders the traced run's per-hop latency
// attribution from reassembled span trees: each hop's mean exclusive
// latency and its share of the mean end-to-end, measured by telescoping
// real per-message spans instead of subtracting aggregate quantiles
// (the heuristic writeAttribution falls back to without tracing).
func writeTracedAttribution(w io.Writer, out *stackTrace) {
	type agg struct {
		kind, layer, impl string
		sumExcl           int64
		n                 int
	}
	var order []string
	byKey := map[string]*agg{}
	var e2eSum int64
	complete := 0
	for _, tr := range out.trees {
		if !tr.Complete {
			continue
		}
		complete++
		e2eSum += tr.EndToEnd
		for _, h := range tr.Hops {
			key := h.KindName + "/" + h.Layer + "/" + h.Impl
			a, ok := byKey[key]
			if !ok {
				a = &agg{kind: h.KindName, layer: h.Layer, impl: h.Impl}
				byKey[key] = a
				order = append(order, key)
			}
			a.sumExcl += h.Excl
			a.n++
		}
	}
	if complete == 0 {
		fmt.Fprintf(w, "stack: tracing enabled but no complete trees reassembled (%d spans recorded)\n", out.SpanTotal)
		return
	}
	meanE2E := float64(e2eSum) / float64(complete) / 1e3
	table := stats.NewTable(
		fmt.Sprintf("stack: traced per-hop exclusive latency attribution (%d complete trees, mean end-to-end %.1f µs, Σexcl/measured = %.3f)",
			complete, meanE2E, out.MeanRatio),
		"hop", "layer", "impl", "spans", "mean excl (µs)", "share")
	for _, key := range order {
		a := byKey[key]
		mean := float64(a.sumExcl) / float64(a.n) / 1e3
		share := 0.0
		if meanE2E > 0 {
			share = mean / meanE2E
		}
		table.AddRow(a.kind, a.layer, a.impl, a.n, mean, fmt.Sprintf("%.0f%%", share*100))
	}
	table.Render(w)
}

// writeTracedWaterfall prints the most recent complete tree's timeline.
func writeTracedWaterfall(w io.Writer, out *stackTrace) {
	for _, tr := range out.trees {
		if tr.Complete {
			io.WriteString(w, "\n")
			tr.WriteWaterfall(w)
			return
		}
	}
}
