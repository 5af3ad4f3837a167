package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// Send-side coalescing: the edge layer that makes the batched datapath
// the default datapath. PR 5's vectored path (sendmmsg/GSO) pays off
// only for callers that batch by hand through SendBufs; the Coalescer
// gives per-message SendBuf callers the same wire behaviour by gathering
// sustained senders into bursts TCP-autocork style, while an idle
// connection bypasses the queue entirely and keeps the direct path's
// latency. assemble wraps the negotiated stack in a Coalescer when the
// endpoint was built with WithCoalescing.

// Coalescing defaults: a 50µs flush budget keeps the added latency under
// load well below a loopback RTT, and 64 messages is the kernel's UDP
// GSO segment cap — the largest burst the transport can turn into one
// syscall.
const (
	DefaultCoalesceDelay = 50 * time.Microsecond
	DefaultCoalesceBurst = 64
)

// CoalesceConfig parameterizes send-side coalescing (WithCoalescing).
type CoalesceConfig struct {
	// Delay is the flush-timer budget ceiling: the longest a queued
	// message waits before the pending burst is flushed. The effective
	// timer adapts per connection — four EWMA inter-send gaps, clamped
	// to [Delay/16, Delay] — so sustained fast senders flush well
	// inside the ceiling. Default 50µs.
	Delay time.Duration
	// MaxBurst is the burst-size cap: reaching it flushes immediately.
	// Default 64 (the UDP GSO segment cap).
	MaxBurst int
	// Idle is the load-detection window: a send is "under load" when it
	// arrives within Idle of the previous send, and only then does the
	// queue engage. Defaults to Delay.
	Idle time.Duration
}

func (c *CoalesceConfig) fill() {
	if c.Delay <= 0 {
		c.Delay = DefaultCoalesceDelay
	}
	if c.MaxBurst <= 0 {
		c.MaxBurst = DefaultCoalesceBurst
	}
	if c.Idle <= 0 {
		c.Idle = c.Delay
	}
}

// Flusher is implemented by connections that buffer sends (the
// Coalescer): Flush pushes everything pending to the wire. Callers with
// a latency-critical message send it and then Flush.
type Flusher interface {
	Flush(ctx context.Context) error
}

// Flush flushes conn's pending sends when it buffers any (Flusher);
// for every other connection it is a no-op.
func Flush(ctx context.Context, conn Conn) error {
	if f, ok := conn.(Flusher); ok {
		return f.Flush(ctx)
	}
	return nil
}

// Flush reasons index the per-reason counters.
const (
	flushReasonSize = iota // burst-size cap reached
	flushReasonTimer
	flushReasonExplicit // Flush call, Close, or a caller's own SendBufs
	flushReasonCount
)

// Coalescer is a per-connection send queue at the top of the stack:
// SendBuf under load enqueues into a pending burst flushed by whichever
// comes first — the flush timer (adaptive, bounded by Delay), the burst
// cap (MaxBurst), or an explicit Flush — and the burst rides the inner
// connection's SendBufs/sendmmsg/GSO machinery. The load detector is adaptive and
// allocation-free: a send arriving more than Idle after the previous one
// finds an idle connection and takes the direct path (a couple of atomic
// operations of overhead); the queue engages only from the third send of
// a rapid run, so a lone message — or a lone pair — never waits on the
// timer.
//
// Error semantics extend the BatchError contract: a flush triggered
// inline (size cap, explicit Flush, Close) reports its error — usually a
// *BatchError with partial-send accounting — to that caller; a
// timer-triggered flush has no caller on the stack, so its error is
// deferred and delivered exactly once to the next sender (or to Flush or
// Close). Buffers are in all cases consumed by the flush: the inner
// SendBufs releases whatever it did not transmit.
type Coalescer struct {
	Datapath // the stack below: the receive side passes straight through
	delay    time.Duration
	idle     int64 // load-detection window, nanoseconds
	max      int

	last    atomic.Int64 // UnixNano of the most recent send
	hot     atomic.Bool  // a recent send already followed another
	queued  atomic.Int64 // messages queued or in a flush in flight
	ewmaGap atomic.Int64 // EWMA of inter-send gaps, nanoseconds (α = 1/8)

	mu sync.Mutex
	// pending is the open burst. A store transfers ownership to the
	// flush path, which hands the burst to the inner SendBufs (releasing
	// every element exactly once, sent or not).
	pending []*wire.Buf //bertha:queue flushed by flushPending; inner SendBufs releases
	n       int
	firstAt int64 // UnixNano of the burst's first enqueue
	ferr    error // deferred timer-flush error awaiting a caller

	flight   []*wire.Buf   // swap partner of pending during a flush
	flushSem chan struct{} // serializes flushes (a mutex may not be held across SendBufs)
	timer    *time.Timer
	bg       context.Context // lifecycle root for timer flushes; canceled on Close
	cancel   context.CancelFunc
	once     sync.Once

	enqueued   *telemetry.Counter
	idleBypass *telemetry.Counter
	flushErrs  *telemetry.Counter
	reasons    [flushReasonCount]*telemetry.Counter
	delayHist  *telemetry.Histogram
	adaptGauge *telemetry.Gauge
}

var (
	_ Datapath = (*Coalescer)(nil)
	_ Flusher  = (*Coalescer)(nil)
)

// NewCoalescer wraps inner in a send-side coalescer. Telemetry lands in
// tel (the process default when nil): flush-reason counters
// coalesce/flush_{size,timer,explicit}, coalesce/idle_bypass,
// coalesce/enqueued, coalesce/flush_errors, the coalesce/delay
// histogram of enqueue→flush dwell times, and the
// coalesce/adaptive_delay gauge of the timer budget (nanoseconds) most
// recently armed by the gap estimator.
func NewCoalescer(inner Conn, cfg CoalesceConfig, tel *telemetry.Registry) *Coalescer {
	cfg.fill()
	if tel == nil {
		tel = telemetry.Default()
	}
	c := &Coalescer{
		Datapath: Resolve(inner),
		delay:    cfg.Delay,
		idle:     cfg.Idle.Nanoseconds(),
		max:      cfg.MaxBurst,
		pending:  make([]*wire.Buf, cfg.MaxBurst),
		flight:   make([]*wire.Buf, cfg.MaxBurst),
		flushSem: make(chan struct{}, 1),

		enqueued:   tel.Counter("coalesce/enqueued"),
		idleBypass: tel.Counter("coalesce/idle_bypass"),
		flushErrs:  tel.Counter("coalesce/flush_errors"),
		delayHist:  tel.Histogram("coalesce/delay"),
		adaptGauge: tel.Gauge("coalesce/adaptive_delay"),
	}
	// Until the gap estimator warms up, the timer budget is the
	// configured maximum: a fresh connection behaves exactly like the
	// fixed-delay coalescer and only tightens as real gaps arrive.
	c.ewmaGap.Store(cfg.Delay.Nanoseconds())
	c.reasons[flushReasonSize] = tel.Counter("coalesce/flush_size")
	c.reasons[flushReasonTimer] = tel.Counter("coalesce/flush_timer")
	c.reasons[flushReasonExplicit] = tel.Counter("coalesce/flush_explicit")
	c.bg, c.cancel = context.WithCancel(context.Background())
	c.timer = time.NewTimer(time.Hour)
	c.timer.Stop()
	go c.flushLoop()
	return c
}

// SendBuf implements BufConn. Idle connections (and the first two sends
// of a rapid run) take the direct path; sustained senders enqueue.
// Sends behind a non-empty queue always enqueue, so one caller's
// messages never reorder around its own backlog.
func (c *Coalescer) SendBuf(ctx context.Context, b *wire.Buf) error {
	now := time.Now().UnixNano()
	prev := c.last.Swap(now)
	if prev != 0 {
		c.observeGap(now - prev)
	}
	recent := now-prev < c.idle
	if c.queued.Load() > 0 {
		return c.enqueue(ctx, b, now)
	}
	if recent {
		if c.hot.Load() {
			return c.enqueue(ctx, b, now)
		}
		c.hot.Store(true) // warming: one more rapid send engages the queue
	} else if c.hot.Load() {
		c.hot.Store(false) // cooled off
	}
	c.idleBypass.Inc()
	return c.Datapath.SendBuf(ctx, b)
}

// Send implements Conn by copying p into a pooled buffer and sending it
// through the coalescing path, so plain-[]byte callers coalesce too.
func (c *Coalescer) Send(ctx context.Context, p []byte) error {
	return c.SendBuf(ctx, wire.NewBufFrom(c.Headroom(), p))
}

// enqueue adds b to the pending burst, flushing inline when the burst
// cap is reached. A deferred timer-flush error is delivered here (and b
// released unsent) so flush failures always reach a sender.
func (c *Coalescer) enqueue(ctx context.Context, b *wire.Buf, now int64) error {
	c.mu.Lock()
	if err := c.takeDeferredErr(); err != nil {
		c.mu.Unlock()
		b.Release()
		return err
	}
	if c.bg.Err() != nil {
		c.mu.Unlock()
		b.Release()
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		b.Release()
		return err
	}
	for c.n >= c.max {
		// Full and a flush already racing: push it through, then retry.
		c.mu.Unlock()
		if err := c.flush(ctx, flushReasonSize); err != nil {
			b.Release()
			return err
		}
		c.mu.Lock()
	}
	c.pending[c.n] = b
	c.n++
	c.queued.Add(1)
	c.enqueued.Inc()
	if c.n == 1 {
		c.firstAt = now
		d := c.adaptiveDelay()
		c.adaptGauge.Set(int64(d))
		c.timer.Reset(d)
	}
	full := c.n >= c.max
	c.mu.Unlock()
	if full {
		return c.flush(ctx, flushReasonSize)
	}
	return nil
}

// observeGap feeds one inter-send gap into the EWMA the flush timer
// adapts to. Samples are clamped to the configured Delay so an idle
// stretch cannot poison the estimate, and the update races benignly:
// a lost sample just makes the estimator converge one send slower.
func (c *Coalescer) observeGap(gap int64) {
	if max := c.delay.Nanoseconds(); gap > max {
		gap = max
	}
	e := c.ewmaGap.Load()
	c.ewmaGap.Store(e + (gap-e)>>3)
}

// adaptiveDelay is the flush-timer budget for the burst being opened:
// four estimated inter-send gaps, so a steady sender accumulates a few
// messages per burst, clamped between Delay/16 (never below 2µs — the
// timer's useful resolution) and the configured Delay. A fast sender
// therefore flushes well inside the fixed budget, cutting queue dwell,
// while a sender pacing near the budget keeps the full window.
func (c *Coalescer) adaptiveDelay() time.Duration {
	d := time.Duration(4 * c.ewmaGap.Load())
	min := c.delay / 16
	if min < 2*time.Microsecond {
		min = 2 * time.Microsecond
	}
	if d < min {
		d = min
	}
	if d > c.delay {
		d = c.delay
	}
	return d
}

// takeDeferredErr returns and clears the deferred timer-flush error.
// Caller holds c.mu.
func (c *Coalescer) takeDeferredErr() error {
	err := c.ferr
	c.ferr = nil
	return err
}

// flush drains the pending burst through the inner connection. The
// semaphore (not a mutex: the inner SendBufs blocks) serializes
// flushes, so bursts hit the wire in enqueue order.
func (c *Coalescer) flush(ctx context.Context, reason int) error {
	select {
	case c.flushSem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	err := c.flushPending(ctx, reason)
	<-c.flushSem
	return err
}

// flushPending swaps the open burst out under the lock and sends it
// with the lock released. Caller holds the flush semaphore.
func (c *Coalescer) flushPending(ctx context.Context, reason int) error {
	c.mu.Lock()
	n := c.n
	if n == 0 {
		// Nothing pending: an explicit flush still collects any error a
		// timer flush left behind.
		var err error
		if reason == flushReasonExplicit {
			err = c.takeDeferredErr()
		}
		c.mu.Unlock()
		return err
	}
	c.pending, c.flight = c.flight, c.pending
	c.n = 0
	first := c.firstAt
	// No tick is received after Stop; a flush loop that took one just
	// before finds an empty queue.
	c.timer.Stop()
	c.mu.Unlock()

	c.delayHist.Observe(time.Duration(time.Now().UnixNano() - first))
	c.reasons[reason].Inc()
	burst := c.flight[:n]
	err := c.Datapath.SendBufs(ctx, burst)
	for i := range burst {
		burst[i] = nil
	}
	c.queued.Add(int64(-n))
	if err == nil {
		return nil
	}
	c.flushErrs.Inc()
	if reason == flushReasonTimer {
		// No caller on this stack: defer the error for the next sender
		// (or Flush/Close), who receives it exactly once.
		c.mu.Lock()
		if c.ferr == nil {
			c.ferr = err
		}
		c.mu.Unlock()
		return nil
	}
	return err
}

// flushLoop runs timer-budget flushes until Close cancels the
// coalescer's lifecycle root.
func (c *Coalescer) flushLoop() {
	for {
		select {
		case <-c.timer.C:
			c.flush(c.bg, flushReasonTimer)
		case <-c.bg.Done():
			return
		}
	}
}

// Flush implements Flusher: it pushes the pending burst to the wire and
// reports any pending flush failure (including a deferred timer-flush
// error) to the caller.
func (c *Coalescer) Flush(ctx context.Context) error {
	return c.flush(ctx, flushReasonExplicit)
}

// SendBufs implements BatchConn: the caller batched already, so the
// burst is handed straight down — after flushing any coalesced backlog
// so messages stay in send order. On a backlog-flush failure the burst
// is released unsent and the error wrapped per the BatchError contract
// (Sent counts bs elements only).
func (c *Coalescer) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	c.last.Store(time.Now().UnixNano())
	if c.queued.Load() > 0 {
		if err := c.flush(ctx, flushReasonExplicit); err != nil {
			ReleaseAll(bs)
			return &BatchError{Sent: 0, Err: err}
		}
	}
	return c.Datapath.SendBufs(ctx, bs)
}

// Close flushes the pending burst, stops the flush loop, and closes the
// inner connection. A flush failure (including a deferred one) is
// reported when the close itself succeeds.
func (c *Coalescer) Close() error {
	var ferr error
	c.once.Do(func() {
		ferr = c.flush(c.bg, flushReasonExplicit)
		c.cancel()
		c.timer.Stop()
	})
	err := c.Datapath.Close()
	if err == nil {
		err = ferr
	}
	return err
}
