package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// DefaultTraceLen is the trace ring capacity: enough to hold the full
// negotiation history of a burst of connection setups without growing.
const DefaultTraceLen = 256

// Trace event kinds, in rough lifecycle order. Every connection set-up
// records several, so recording formats nothing: an event keeps the
// names and counts its Detail prints (TraceDetail), and the text is
// rendered when the event is read.
const (
	// TraceOfferSent: a client sent its ClientHello (offers + spec).
	TraceOfferSent = "offer-sent"
	// TraceHelloRecv: a server received a ClientHello.
	TraceHelloRecv = "client-hello"
	// TraceServerHello: a client received the ServerHello; Micros is the
	// hello round-trip time (the paper's Figure 3 establishment cost).
	TraceServerHello = "server-hello"
	// TraceImplChosen: negotiation bound a chunnel type to an
	// implementation; Detail carries the ranking inputs (priority,
	// location, providing side).
	TraceImplChosen = "impl-chosen"
	// TraceFallback: the preferred candidate was dropped (resource claim
	// failed, parameters unobtainable) and the policy re-ran.
	TraceFallback = "fallback"
	// TraceBatchPath: stack assembly measured the contiguous batch-aware
	// segment; Detail reports how many layers a vectored SendBufs burst
	// traverses before degrading to per-message sends.
	TraceBatchPath = "batch-path"
	// TraceConnected: stack assembly completed; Detail lists the stack.
	TraceConnected = "connected"
	// TraceFailed: negotiation or assembly failed; Detail is the error.
	TraceFailed = "negotiation-failed"
	// TraceTeardown: a managed connection closed and its implementations
	// were torn down.
	TraceTeardown = "teardown"
)

// TraceEvent is one structured negotiation event.
type TraceEvent struct {
	// Seq is a monotonically increasing sequence number (assigned by the
	// ring; survives wrap-around, so readers can detect gaps).
	Seq uint64 `json:"seq"`
	// At is the event time (assigned by the ring when zero).
	At time.Time `json:"at"`
	// Endpoint is the local endpoint's debugging name.
	Endpoint string `json:"endpoint"`
	// Side is "client" or "server".
	Side string `json:"side"`
	// Kind is one of the Trace* constants.
	Kind string `json:"kind"`
	// Chunnel is the chunnel type, when the event concerns one node.
	Chunnel string `json:"chunnel,omitempty"`
	// Impl is the implementation, when one has been chosen.
	Impl string `json:"impl,omitempty"`
	// Detail carries free-form context (ranking, error text, stack).
	Detail string `json:"detail,omitempty"`
	// Micros is an associated duration in microseconds (hello RTT), 0
	// when not applicable.
	Micros float64 `json:"micros,omitempty"`
	// Deferred is Detail not yet rendered. Record keeps it as it is;
	// Events renders it into Detail, so readers only ever see the text.
	Deferred TraceDetail `json:"-"`
}

// TraceDetail is an event's Detail kept unformatted: a fmt layout and
// the names, counts and flag it prints, rendered when the event is
// read. Start one with Detailf and attach the arguments in verb order:
// Str for each %s, Int for each %d, Bool for the %t and Value for the
// %v, a fmt.Stringer (a pointer the recorder already holds, so storing
// it allocates nothing).
type TraceDetail struct {
	format     string
	strs       [3]string
	ints       [2]int
	flag       bool
	value      fmt.Stringer
	nstr, nint uint8
}

// Detailf starts a deferred Detail laid out by format.
func Detailf(format string) TraceDetail { return TraceDetail{format: format} }

// Str attaches the next %s argument.
func (d TraceDetail) Str(s string) TraceDetail {
	d.strs[d.nstr] = s
	d.nstr++
	return d
}

// Int attaches the next %d argument.
func (d TraceDetail) Int(n int) TraceDetail {
	d.ints[d.nint] = n
	d.nint++
	return d
}

// Bool attaches the %t argument.
func (d TraceDetail) Bool(b bool) TraceDetail {
	d.flag = b
	return d
}

// Value attaches the %v argument.
func (d TraceDetail) Value(v fmt.Stringer) TraceDetail {
	d.value = v
	return d
}

// String renders the detail; "" when none was set.
func (d *TraceDetail) String() string {
	if d.format == "" {
		return ""
	}
	args := make([]any, 0, len(d.strs)+len(d.ints)+2)
	var ns, ni int
	for i := 0; i+1 < len(d.format); i++ {
		if d.format[i] != '%' {
			continue
		}
		i++
		switch d.format[i] {
		case 's':
			args = append(args, d.strs[ns])
			ns++
		case 'd':
			args = append(args, d.ints[ni])
			ni++
		case 't':
			args = append(args, d.flag)
		case 'v':
			args = append(args, d.value)
		}
	}
	return fmt.Sprintf(d.format, args...)
}

// render moves a deferred Detail into Detail.
func (e *TraceEvent) render() {
	if e.Detail == "" {
		e.Detail = e.Deferred.String()
	}
	e.Deferred = TraceDetail{}
}

// String renders the event on one line.
func (e TraceEvent) String() string {
	e.render()
	s := fmt.Sprintf("#%d %s %s/%s %s", e.Seq, e.At.Format("15:04:05.000"), e.Endpoint, e.Side, e.Kind)
	if e.Chunnel != "" {
		s += " " + e.Chunnel
	}
	if e.Impl != "" {
		s += "=" + e.Impl
	}
	if e.Micros > 0 {
		s += fmt.Sprintf(" %.1fµs", e.Micros)
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Trace is a bounded ring of TraceEvents: the last N events are kept,
// older ones are overwritten. It is safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	buf   []TraceEvent
	next  uint64 // total events ever recorded
	clock func() time.Time
}

// NewTrace returns a ring holding the last n events (minimum 1).
func NewTrace(n int) *Trace {
	if n < 1 {
		n = 1
	}
	return &Trace{buf: make([]TraceEvent, n), clock: time.Now}
}

// Record appends one event, stamping Seq and (when zero) At.
func (t *Trace) Record(ev TraceEvent) {
	t.mu.Lock()
	ev.Seq = t.next
	if ev.At.IsZero() {
		ev.At = t.clock()
	}
	t.buf[t.next%uint64(len(t.buf))] = ev
	t.next++
	t.mu.Unlock()
}

// Total returns how many events have ever been recorded (≥ len(Events())).
func (t *Trace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []TraceEvent {
	t.mu.Lock()
	n := uint64(len(t.buf))
	start := uint64(0)
	count := t.next
	if t.next > n {
		start = t.next - n
		count = n
	}
	out := make([]TraceEvent, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, t.buf[(start+i)%n])
	}
	t.mu.Unlock()
	// Rendering runs outside the lock: a recorder never waits on a reader.
	for i := range out {
		out[i].render()
	}
	return out
}
