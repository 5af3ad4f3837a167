package main

import (
	"context"
	"encoding/binary"
	"sort"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// Span sides and directions.
const (
	sideClient = 0
	sideServer = 1
	dirSend    = 0
	dirRecv    = 1
	// dirNone marks a span that is neither a send nor a receive call:
	// the server's handler, a codec call, a connection phase.
	dirNone = 2
)

// span is one call into one layer, as seen from the benchmark's side of
// the boundary. Its parent is the span of the layer above on the same
// side, direction and op (layer−1), which is how self time is derived.
type span struct {
	start, end int64 // ns since the ring's base
	op         uint64
	conn       uint8 // client connection index
	side       uint8
	dir        uint8
	layer      uint8 // index into the workload's layer list, outermost first
}

// spanRing is the traced run's preallocated span store: a slot is
// claimed by one atomic add, and once the ring is full the oldest spans
// are overwritten. It is read only after every writer has stopped.
type spanRing struct {
	base time.Time
	next atomic.Uint64
	buf  []span // length is a power of two
}

func newSpanRing(size int) *spanRing {
	n := 1
	for n < size {
		n <<= 1
	}
	return &spanRing{base: time.Now(), buf: make([]span, n)}
}

func (r *spanRing) now() int64 { return int64(time.Since(r.base)) }

func (r *spanRing) add(s span) {
	i := r.next.Add(1) - 1
	r.buf[i&uint64(len(r.buf)-1)] = s
}

// spans returns the retained spans and the time from which the ring's
// record is complete (0 when nothing was overwritten).
func (r *spanRing) spans() (all []span, completeFrom int64) {
	n := r.next.Load()
	if n <= uint64(len(r.buf)) {
		return r.buf[:n], 0
	}
	// Spans are added as they end, so the slot about to be overwritten
	// holds the oldest, and every span that ended after it is still here.
	return r.buf, r.buf[n&uint64(len(r.buf)-1)].end
}

// spanConn decorates a connection with a span around every call. It
// sits at a layer boundary: layer names the layer *below* it, the one
// the calls enter.
type spanConn struct {
	inner core.Conn
	ring  *spanRing
	conn  uint8
	side  uint8
	layer uint8
	// The op a span belongs to: op when fixed for this connection's
	// life, else the 8-byte id at offset idAt of the payload, else 0 (the
	// analysis then assigns spans to ops by time).
	op   uint64
	idAt int
}

var (
	_ core.BufConn      = (*spanConn)(nil)
	_ core.BatchConn    = (*spanConn)(nil)
	_ core.HeadroomConn = (*spanConn)(nil)
)

func (c *spanConn) opOf(p []byte) uint64 {
	if c.op != 0 {
		return c.op
	}
	if c.idAt >= 0 && len(p) >= c.idAt+8 {
		return binary.LittleEndian.Uint64(p[c.idAt:])
	}
	return 0
}

func (c *spanConn) record(dir uint8, op uint64, start int64) {
	c.ring.add(span{start: start, end: c.ring.now(), op: op,
		conn: c.conn, side: c.side, dir: dir, layer: c.layer})
}

func (c *spanConn) Send(ctx context.Context, p []byte) error {
	op, t0 := c.opOf(p), c.ring.now()
	err := c.inner.Send(ctx, p)
	c.record(dirSend, op, t0)
	return err
}

func (c *spanConn) Recv(ctx context.Context) ([]byte, error) {
	t0 := c.ring.now()
	p, err := c.inner.Recv(ctx)
	if err == nil {
		c.record(dirRecv, c.opOf(p), t0)
	}
	return p, err
}

func (c *spanConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	op, t0 := c.opOf(b.Bytes()), c.ring.now()
	err := core.SendBuf(ctx, c.inner, b)
	c.record(dirSend, op, t0)
	return err
}

func (c *spanConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	t0 := c.ring.now()
	b, err := core.RecvBuf(ctx, c.inner)
	if err == nil {
		c.record(dirRecv, c.opOf(b.Bytes()), t0)
	}
	return b, err
}

// SendBufs and RecvBufs record one span per burst, under the first
// message's op.
func (c *spanConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	var op uint64
	if len(bs) > 0 {
		op = c.opOf(bs[0].Bytes())
	}
	t0 := c.ring.now()
	err := core.SendBufs(ctx, c.inner, bs)
	c.record(dirSend, op, t0)
	return err
}

func (c *spanConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	t0 := c.ring.now()
	n, err := core.RecvBufs(ctx, c.inner, into)
	if err == nil && n > 0 {
		c.record(dirRecv, c.opOf(into[0].Bytes()), t0)
	}
	return n, err
}

func (c *spanConn) Headroom() int           { return core.HeadroomOf(c.inner) }
func (c *spanConn) LocalAddr() bertha.Addr  { return c.inner.LocalAddr() }
func (c *spanConn) RemoteAddr() bertha.Addr { return c.inner.RemoteAddr() }
func (c *spanConn) Close() error            { return c.inner.Close() }

// interval is a stretch of one op's time owned by one row.
type interval struct {
	start, end int64
	row        int
}

// opWindow is one op as its client saw it.
type opWindow struct {
	op         uint64
	conn       uint8
	start, end int64
}

// rowLayout maps spans to result rows; the remainder rows follow the
// layers'.
type rowLayout struct {
	layers int // rows 0..layers-1 are send.<layer>, layers..2·layers-1 recv.<layer>
}

func (l rowLayout) send(layer uint8) int { return int(layer) }
func (l rowLayout) recv(layer uint8) int { return l.layers + int(layer) }
func (l rowLayout) serverApp() int       { return 2 * l.layers }
func (l rowLayout) inFlight() int        { return 2*l.layers + 1 }
func (l rowLayout) rows() int            { return 2*l.layers + 2 }

// selfTimes splits one op's window over the rows. A send span owns its
// interval minus its children's (self time). A receive span owns the
// stretch after the layer below returned — the wait before that is the
// peer's time, not this layer's — and a bottom-layer receive the stretch
// since the peer handed the datagram to the kernel. What no span owns is
// the server's handler when it lies between the server's receive and its
// reply, and in-flight time otherwise. The rows sum to the window
// exactly.
func selfTimes(w opWindow, spans []span, l rowLayout) []float64 {
	bottom := uint8(l.layers - 1)
	var ivs []interval
	var srvRecvEnd, srvSendStart int64 = -1, -1
	for i, s := range spans {
		if s.side == sideServer && s.dir == dirRecv && s.end > srvRecvEnd {
			srvRecvEnd = s.end
		}
		if s.side == sideServer && s.dir == dirSend && (srvSendStart < 0 || s.start < srvSendStart) {
			srvSendStart = s.start
		}
		switch s.dir {
		case dirNone:
			ivs = append(ivs, interval{s.start, s.end, int(s.layer)})
		case dirSend:
			// Self time: the span minus the next layer's spans inside it.
			cur := s.start
			for _, c := range children(spans, i) {
				if c.start > cur {
					ivs = append(ivs, interval{cur, c.start, l.send(s.layer)})
				}
				cur = max(cur, c.end)
			}
			if s.end > cur {
				ivs = append(ivs, interval{cur, s.end, l.send(s.layer)})
			}
		case dirRecv:
			// What this call waited for: the layer below returning, or at
			// the bottom the peer handing the datagram to the kernel.
			ready := int64(-1)
			for _, p := range spans {
				switch {
				case s.layer != bottom && p.side == s.side && p.dir == dirRecv &&
					p.layer == s.layer+1 && p.end <= s.end:
					ready = max(ready, p.end)
				case s.layer == bottom && p.side != s.side && p.dir == dirSend &&
					p.layer == bottom && p.start <= s.end:
					ready = max(ready, min(p.end, s.end))
				}
			}
			if ready < 0 {
				continue // nothing to anchor the wait to
			}
			if from := max(s.start, ready); s.end > from {
				ivs = append(ivs, interval{from, s.end, l.recv(s.layer)})
			}
		}
	}

	// Sweep the window: each elementary stretch goes to the covering
	// interval that started last, or to the remainder rows.
	cuts := []int64{w.start, w.end}
	for _, iv := range ivs {
		cuts = append(cuts, iv.start, iv.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := make([]float64, l.rows())
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a < w.start || b > w.end || a == b {
			continue
		}
		owner, ownerStart := -1, int64(-1)
		for _, iv := range ivs {
			if iv.start <= a && iv.end >= b && iv.start > ownerStart {
				owner, ownerStart = iv.row, iv.start
			}
		}
		if owner < 0 {
			owner = l.inFlight()
			if srvRecvEnd >= 0 && a >= srvRecvEnd && srvSendStart >= 0 && b <= srvSendStart {
				owner = l.serverApp()
			}
		}
		out[owner] += float64(b - a)
	}
	return out
}

// children returns the spans one layer below spans[i] on the same side
// and direction that lie inside it, in time order.
func children(spans []span, i int) []span {
	s := spans[i]
	var cs []span
	for _, c := range spans {
		if c.side == s.side && c.dir == s.dir && c.layer == s.layer+1 &&
			c.start >= s.start && c.end <= s.end {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
	return cs
}

// medianBand returns the indices of the ops whose duration lies between
// the 49th and 51st percentile, and the median duration. Averaging self
// times over this band gives rows that sum to the median op: a sum of
// per-row medians would not telescope.
func medianBand(ws []opWindow) (band []int, medianNS float64) {
	if len(ws) == 0 {
		return nil, 0
	}
	idx := make([]int, len(ws))
	for i := range idx {
		idx[i] = i
	}
	dur := func(i int) int64 { return ws[i].end - ws[i].start }
	sort.Slice(idx, func(a, b int) bool { return dur(idx[a]) < dur(idx[b]) })
	lo, hi := len(idx)*49/100, len(idx)*51/100
	if hi <= lo {
		hi = lo + 1
	}
	return idx[lo:hi], float64(dur(idx[len(idx)/2]))
}

// assignByTime gives op ids to spans that carry none: a span belongs to
// the op of its connection whose window contains the span's anchor — a
// receive's end, anything else's start — since a blocked receive starts
// before its op does and a send's return can trail its op's end.
func assignByTime(spans []span, ws []opWindow) {
	byConn := map[uint8][]opWindow{}
	for _, w := range ws {
		byConn[w.conn] = append(byConn[w.conn], w)
	}
	for c := range byConn {
		w := byConn[c]
		sort.Slice(w, func(i, j int) bool { return w[i].start < w[j].start })
	}
	for i := range spans {
		s := &spans[i]
		if s.op != 0 {
			continue
		}
		at := s.start
		if s.dir == dirRecv {
			at = s.end
		}
		w := byConn[s.conn]
		k := sort.Search(len(w), func(j int) bool { return w[j].end >= at })
		if k < len(w) && w[k].start <= at {
			s.op = w[k].op
		}
	}
}

// bandRows averages selfTimes over the median band of ws and returns
// the rows in µs with the band's mean op duration.
func bandRows(ws []opWindow, spans []span, l rowLayout) (rows []float64, opUS float64) {
	byOp := map[uint64][]span{}
	for _, s := range spans {
		if s.op != 0 {
			byOp[s.op] = append(byOp[s.op], s)
		}
	}
	band, _ := medianBand(ws)
	rows = make([]float64, l.rows())
	for _, i := range band {
		for r, v := range selfTimes(ws[i], byOp[ws[i].op], l) {
			rows[r] += v
		}
		opUS += float64(ws[i].end - ws[i].start)
	}
	n := float64(max(len(band), 1)) * 1e3
	for r := range rows {
		rows[r] /= n
	}
	return rows, opUS / n
}
