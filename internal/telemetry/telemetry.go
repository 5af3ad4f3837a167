// Package telemetry is the runtime observability core: dependency-free,
// zero-allocation metrics (atomic counters and gauges, lock-free
// log₂-bucketed latency histograms) plus a bounded ring of structured
// negotiation trace events.
//
// The paper's central claim (§4) is that the *runtime* — not the
// application — decides per connection which implementation of each
// Chunnel runs and where. This package makes that decision, and the
// live behaviour of the chosen stack, visible: core.assemble wraps every
// resolved chunnel layer in an instrumented connection that records
// sends/recvs/bytes/errors/latency into a ConnMetrics preallocated here,
// and negotiation emits trace events (offer sent, hello round trip,
// implementation chosen with its ranking, fallback taken, teardown) into
// the registry's ring.
//
// Hot-path discipline: Counter.Add, Gauge.Set, and Histogram.Observe
// are single atomic operations on memory preallocated at registration
// time — no map lookups, no locks, no allocation. The repository's
// AllocsPerRun gates run with instrumentation enabled and still measure
// 0 allocs/op. Readers (Snapshot, the /debug/bertha handler) may
// allocate freely; they run off the data path.
package telemetry

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/internal/stats"
	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/wire"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; obtain shared named instances from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, active connections).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the histogram bucket count: bucket 0 holds exact-zero
// observations and bucket b (1 ≤ b ≤ 64) holds durations in
// [2^(b-1), 2^b) nanoseconds, so the full range of time.Duration fits
// with no clamping arithmetic on the hot path.
const histBuckets = 65

// Histogram is a lock-free log₂-bucketed latency histogram. Observe is
// one bit-length computation plus two atomic adds; quantile readouts
// interpolate within the hit bucket and are intended for off-path
// consumers (snapshots, the HTTP handler).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.sum.Add(uint64(ns))
	h.count.Add(1)
}

// ObserveValue records one unitless value (e.g. a batch size in
// messages) into the same log₂ buckets. Readouts of a value histogram
// use ValueMean / ValueQuantile, which do not apply the nanosecond→µs
// conversion of the duration readouts.
func (h *Histogram) ObserveValue(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot returns a consistent-enough copy for rendering. Buckets are
// loaded individually (not atomically as a set); concurrent writers can
// skew a bucket by a few in-flight observations, which is fine for
// monitoring output.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Summary renders the histogram as the repository's standard
// stats.Summary (count, mean, p5/p25/p50/p75/p95/p99 in microseconds),
// so telemetry readouts reuse the same summarization and table shapes
// as the benchmark harness.
func (h *Histogram) Summary() stats.Summary { return h.Snapshot().Summary() }

// HistogramSnapshot is an immutable copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64 // nanoseconds
	Buckets [histBuckets]uint64
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) in microseconds,
// interpolating linearly within the hit bucket. Returns NaN when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var seen float64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if rank < seen+float64(n) {
			lo, hi := bucketBounds(b)
			frac := (rank - seen + 0.5) / float64(n)
			return (lo + (hi-lo)*frac) / 1e3
		}
		seen += float64(n)
	}
	// rank == count-1 lands in the last non-empty bucket.
	for b := histBuckets - 1; b >= 0; b-- {
		if s.Buckets[b] != 0 {
			_, hi := bucketBounds(b)
			return hi / 1e3
		}
	}
	return math.NaN()
}

// bucketBounds returns bucket b's nanosecond range [lo, hi).
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 0
	}
	return math.Ldexp(1, b-1), math.Ldexp(1, b)
}

// Mean returns the mean in microseconds (NaN when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.Count) / 1e3
}

// ValueMean returns the mean in the histogram's raw units — the readout
// for histograms fed with ObserveValue (NaN when empty).
func (s HistogramSnapshot) ValueMean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.Count)
}

// ValueQuantile returns the q-th quantile in the histogram's raw units —
// the readout for histograms fed with ObserveValue.
func (s HistogramSnapshot) ValueQuantile(q float64) float64 {
	return s.Quantile(q) * 1e3
}

// Summary renders the snapshot as a stats.Summary in microseconds.
func (s HistogramSnapshot) Summary() stats.Summary {
	return stats.Summary{
		Count: int(s.Count),
		Mean:  s.Mean(),
		P5:    s.Quantile(0.05),
		P25:   s.Quantile(0.25),
		P50:   s.Quantile(0.50),
		P75:   s.Quantile(0.75),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}

// ConnMetrics aggregates the data-plane counters for one
// (chunnel type, implementation) pair. The runtime preallocates one per
// pair at stack-assembly time and the instrumented connection holds a
// direct pointer, so the per-message cost is two atomic adds (plus the
// latency histogram's three on a timed call) — never a map lookup.
type ConnMetrics struct {
	// Chunnel is the chunnel type ("serialize", "http2", "transport").
	Chunnel string
	// Impl is the implementation chosen by negotiation
	// ("serialize/bincode", "shard/xdp", "udp").
	Impl string

	Sends     Counter
	Recvs     Counter
	SendBytes Counter
	RecvBytes Counter
	SendErrs  Counter
	RecvErrs  Counter
	// SendLatency and RecvLatency are inclusive of every layer below
	// this one: a layer's exclusive cost is its latency minus its inner
	// neighbour's. RecvLatency includes time blocked waiting for the
	// next message. Fed by core's instrumented wrapper they are a
	// sample — each connection times its first call per direction, then
	// every 64th (and every traced one) — so their count is the number of
	// timed calls; Sends and Recvs are the exact rates.
	SendLatency Histogram
	RecvLatency Histogram
	// SendBatch and RecvBatch record the realized burst sizes (messages
	// per SendBufs/RecvBufs call) as value histograms; per-message
	// SendBuf/RecvBuf traffic does not feed them, so their counts are
	// the number of vectored calls, not messages.
	SendBatch Histogram
	RecvBatch Histogram

	// hopExclP50/hopExclP95 are EWMAs of this layer's *exclusive*
	// send-path latency in microseconds (its inclusive latency minus the
	// next-inner layer's), folded in by managedConn.HopStats. Stored as
	// math.Float64bits; zero means never folded. This is the per-hop
	// signal a renegotiation policy consumes: a rising exclusive p95 on
	// one layer fingers that layer, where the inclusive histograms blame
	// everything beneath it too.
	hopExclP50 atomic.Uint64
	hopExclP95 atomic.Uint64
}

// hopEWMAAlpha weights new hop-exclusive observations: small enough to
// smooth scheduling noise, large enough that a sustained regression
// moves the rollup within tens of folds.
const hopEWMAAlpha = 0.2

// FoldHopExcl folds one exclusive-latency observation pair (µs) into
// the EWMA rollup. Racing folds may drop an update; the rollup is a
// monitoring signal, not an accounting ledger.
func (m *ConnMetrics) FoldHopExcl(p50, p95 float64) {
	if math.IsNaN(p50) || math.IsNaN(p95) || p50 < 0 || p95 < 0 {
		return
	}
	fold := func(a *atomic.Uint64, v float64) {
		old := a.Load()
		if old == 0 {
			a.Store(math.Float64bits(v))
			return
		}
		prev := math.Float64frombits(old)
		a.Store(math.Float64bits(prev + hopEWMAAlpha*(v-prev)))
	}
	fold(&m.hopExclP50, p50)
	fold(&m.hopExclP95, p95)
}

// HopExcl returns the exclusive-latency EWMA rollup in microseconds;
// ok is false before the first fold.
func (m *ConnMetrics) HopExcl() (p50, p95 float64, ok bool) {
	b50, b95 := m.hopExclP50.Load(), m.hopExclP95.Load()
	if b50 == 0 && b95 == 0 {
		return 0, 0, false
	}
	return math.Float64frombits(b50), math.Float64frombits(b95), true
}

// The Record* methods count one call and observe its latency; the
// Count* methods are the same call without a duration, for callers that
// time only a sample of their calls (core's instrumented wrapper). Each
// Count* reports whether its Record* twin would observe the latency.

// RecordSend records one send outcome of n bytes taking d.
func (m *ConnMetrics) RecordSend(n int, d time.Duration, err error) {
	if m.CountSend(n, err) {
		m.SendLatency.Observe(d)
	}
}

// CountSend records one untimed send outcome of n bytes.
func (m *ConnMetrics) CountSend(n int, err error) bool {
	if err != nil {
		m.SendErrs.Inc()
		return false
	}
	m.Sends.Inc()
	m.SendBytes.Add(uint64(n))
	return true
}

// RecordRecv records one receive outcome of n bytes taking d.
func (m *ConnMetrics) RecordRecv(n int, d time.Duration, err error) {
	if m.CountRecv(n, err) {
		m.RecvLatency.Observe(d)
	}
}

// CountRecv records one untimed receive outcome of n bytes.
func (m *ConnMetrics) CountRecv(n int, err error) bool {
	if err != nil {
		m.RecvErrs.Inc()
		return false
	}
	m.Recvs.Inc()
	m.RecvBytes.Add(uint64(n))
	return true
}

// RecordSendBatch records one SendBufs outcome: sent messages totalling
// bytes payload bytes, taking d. A partially sent burst (sent > 0 with a
// non-nil err) counts its transmitted prefix and the error.
func (m *ConnMetrics) RecordSendBatch(sent, bytes int, d time.Duration, err error) {
	if m.CountSendBatch(sent, bytes, err) {
		m.SendLatency.Observe(d)
	}
}

// CountSendBatch records one untimed SendBufs outcome.
func (m *ConnMetrics) CountSendBatch(sent, bytes int, err error) bool {
	if err != nil {
		m.SendErrs.Inc()
	}
	if sent <= 0 {
		return false
	}
	m.Sends.Add(uint64(sent))
	m.SendBytes.Add(uint64(bytes))
	m.SendBatch.ObserveValue(uint64(sent))
	return true
}

// RecordRecvBatch records one RecvBufs outcome of n messages totalling
// bytes payload bytes, taking d.
func (m *ConnMetrics) RecordRecvBatch(n, bytes int, d time.Duration, err error) {
	if m.CountRecvBatch(n, bytes, err) {
		m.RecvLatency.Observe(d)
	}
}

// CountRecvBatch records one untimed RecvBufs outcome.
func (m *ConnMetrics) CountRecvBatch(n, bytes int, err error) bool {
	if err != nil {
		m.RecvErrs.Inc()
		return false
	}
	if n <= 0 {
		return false
	}
	m.Recvs.Add(uint64(n))
	m.RecvBytes.Add(uint64(bytes))
	m.RecvBatch.ObserveValue(uint64(n))
	return true
}

// connKey identifies a ConnMetrics in the registry.
type connKey struct {
	chunnel, impl string
}

// Registry holds a process's (or one endpoint's) metrics: named
// counters, gauges, and histograms; read-only probes over pre-existing
// atomic counters; per-(chunnel, impl) connection metrics; and the
// negotiation trace ring. Registration takes the registry lock; the
// returned metric objects are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	probes   map[string]func() uint64
	gprobes  map[string]func() int64
	conns    map[connKey]*ConnMetrics
	trace    *Trace
	spans    *tracing.SpanRing

	// healthOn enables the process-health gauges (goroutines, heap,
	// outstanding pooled buffers, open connections) refreshed on every
	// Snapshot. On by default; tests that count gauges can turn it off.
	healthOn atomic.Bool
}

// New returns an empty registry with a trace ring of DefaultTraceLen
// events.
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		probes:   make(map[string]func() uint64),
		gprobes:  make(map[string]func() int64),
		conns:    make(map[connKey]*ConnMetrics),
		trace:    NewTrace(DefaultTraceLen),
	}
	r.healthOn.Store(true)
	return r
}

// defaultRegistry is the process-wide registry used by endpoints unless
// overridden, and by packages that keep process-wide counters
// (transport datagram counts, framing dropped streams).
var defaultRegistry = New()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. Call at
// setup time and retain the pointer; do not call on a hot path.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterProbe publishes a read-only counter function under name —
// the hook for pre-existing ad-hoc atomic counters (XDP verdict counts,
// simnet forwarded packets) that are owned elsewhere. Probes are read
// at snapshot time only; re-registering a name replaces the probe.
func (r *Registry) RegisterProbe(name string, fn func() uint64) {
	r.mu.Lock()
	r.probes[name] = fn
	r.mu.Unlock()
}

// RegisterGaugeProbe publishes a read-only level function under name:
// the gauge analog of RegisterProbe, for instantaneous quantities owned
// elsewhere (reactor connection counts, ring occupancy). The value
// surfaces among the snapshot's Gauges; it is read at snapshot time
// only and must be a cheap lock-free computation. Re-registering a name
// replaces the probe.
func (r *Registry) RegisterGaugeProbe(name string, fn func() int64) {
	r.mu.Lock()
	r.gprobes[name] = fn
	r.mu.Unlock()
}

// Conn returns the shared ConnMetrics for a (chunnel type,
// implementation) pair, creating it on first use. Metrics aggregate
// across every connection bound to the same pair. Call at stack
// assembly, never per message.
func (r *Registry) Conn(chunnelType, implName string) *ConnMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := connKey{chunnelType, implName}
	m, ok := r.conns[k]
	if !ok {
		m = &ConnMetrics{Chunnel: chunnelType, Impl: implName}
		r.conns[k] = m
	}
	return m
}

// Trace returns the registry's negotiation trace ring.
func (r *Registry) Trace() *Trace { return r.trace }

// EnableSpans creates (or returns) the registry's message-span ring of
// capacity n — the per-host flight recorder distributed tracing records
// into. Idempotent: the first caller's capacity wins.
func (r *Registry) EnableSpans(n int) *tracing.SpanRing {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans == nil {
		r.spans = tracing.NewSpanRing(n)
	}
	return r.spans
}

// Spans returns the message-span ring, nil when tracing was never
// enabled on this registry.
func (r *Registry) Spans() *tracing.SpanRing {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// SetHealthGauges toggles the snapshot-time process-health gauges.
func (r *Registry) SetHealthGauges(on bool) { r.healthOn.Store(on) }

// refreshHealth updates the process-health gauges. Called by Snapshot
// before it takes the registry lock (Gauge locks internally).
func (r *Registry) refreshHealth() {
	if !r.healthOn.Load() {
		return
	}
	r.Gauge("process/goroutines").Set(int64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge("process/heap_inuse_bytes").Set(int64(ms.HeapInuse))
	r.Gauge("wire/bufs_outstanding").Set(wire.BufsOutstanding())
}

// sortedKeys returns map keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
