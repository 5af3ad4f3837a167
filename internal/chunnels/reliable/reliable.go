// Package reliable implements the reliability chunnel (Listing 5's
// ReliableChunnel): exactly-once, in-order message delivery over a lossy
// datagram connection, via sequence numbers, cumulative plus selective
// acknowledgements, retransmission with exponential backoff, and a
// fixed-size sender window for flow control. It is the "tcp" stage of
// the §6 pipeline example, and the mTCP-style host fallback the paper
// expects applications to link.
package reliable

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/telemetry"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name.
const Type = "reliable"

// Defaults.
const (
	// DefaultWindow is the sender window (unacknowledged messages).
	DefaultWindow = 128
	// DefaultRTO is the initial retransmission timeout.
	DefaultRTO = 50 * time.Millisecond
	// MaxRetries bounds per-message retransmissions before the
	// connection is declared broken.
	MaxRetries = 12
)

// ErrBroken is returned once a message exhausts its retransmissions.
var ErrBroken = errors.New("reliable: peer unreachable (retransmissions exhausted)")

// RetransmitsCounter is the telemetry counter name for messages resent
// after an RTO expiry, registered in the process registry. A high rate
// relative to the transport's datagram counters indicates loss below
// the reliability layer.
const RetransmitsCounter = "chunnel/reliable/retransmits"

// Message kinds.
const (
	kindData byte = 0x01
	kindAck  byte = 0x02
)

// Node builds the DAG node: reliable(window, rtoMillis).
func Node() spec.Node {
	return spec.New(Type, wire.Int(DefaultWindow), wire.Int(int64(DefaultRTO/time.Millisecond)))
}

// NodeWith builds the DAG node with explicit parameters.
func NodeWith(window int, rto time.Duration) spec.Node {
	return spec.New(Type, wire.Int(int64(window)), wire.Int(int64(rto/time.Millisecond)))
}

// Register installs the userspace fallback implementation and the
// optimizer fusion target metadata (encrypt∘reliable → tls).
func Register(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     Type + "/arq",
			Type:     Type,
			Endpoint: spec.EndpointBoth,
			Location: core.LocUserspace,
		},
		WrapFn: func(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
			window := int(base.IntOr(args, 0, DefaultWindow))
			rto := time.Duration(base.IntOr(args, 1, int64(DefaultRTO/time.Millisecond))) * time.Millisecond
			return New(conn, Config{Window: window, RTO: rto})
		},
	})
}

// Config parameterizes an ARQ connection.
type Config struct {
	// Window is the maximum number of unacknowledged outbound messages.
	Window int
	// RTO is the initial retransmission timeout.
	RTO time.Duration
	// MaxRetries overrides the per-message retransmission bound.
	MaxRetries int
}

func (c *Config) fill() {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.RTO <= 0 {
		c.RTO = DefaultRTO
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = MaxRetries
	}
}

// New wraps conn with ARQ reliability. Both endpoints must wrap
// (spec.EndpointBoth).
func New(conn core.Conn, cfg Config) (core.Conn, error) {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	a := &arqConn{
		base:        conn,
		cfg:         cfg,
		retransmits: telemetry.Default().Counter(RetransmitsCounter),
		unacked:     map[uint64]*pending{},
		slots:       make(chan struct{}, cfg.Window),
		out:         make(chan *wire.Buf, cfg.Window),
		oob:         map[uint64]*wire.Buf{},
		expect:      1,
		ctx:         ctx,
		cancel:      cancel,
	}
	go a.pump()
	go a.retransmitLoop()
	return a, nil
}

type pending struct {
	payload  []byte
	lastSent time.Time
	retries  int
}

type arqConn struct {
	base core.Conn
	cfg  Config
	// retransmits is the shared process-wide resend counter
	// (RetransmitsCounter), resolved once at wrap time.
	retransmits *telemetry.Counter

	sendMu  sync.Mutex
	nextSeq uint64
	cumAck  uint64 // highest seq with all predecessors acked (peer's view)
	unacked map[uint64]*pending
	slots   chan struct{}

	recvMu sync.Mutex
	expect uint64
	oob    map[uint64]*wire.Buf
	out    chan *wire.Buf

	ctx    context.Context
	cancel context.CancelFunc
	once   sync.Once

	errMu sync.Mutex
	err   error
}

func (a *arqConn) fail(err error) {
	a.errMu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.errMu.Unlock()
	a.cancel()
}

func (a *arqConn) failure() error {
	a.errMu.Lock()
	defer a.errMu.Unlock()
	return a.err
}

// Send transmits one message reliably. It blocks when the window is
// full.
func (a *arqConn) Send(ctx context.Context, p []byte) error {
	return a.SendBuf(ctx, wire.NewBufFrom(a.Headroom(), p))
}

// SendBuf transmits one message reliably, consuming b. The header is
// prepended in place; the framed bytes are then detached from the pool
// (the retransmission queue must hold them for an unbounded time, and a
// pooled buffer could be recycled under a concurrent retransmit).
func (a *arqConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	select {
	case a.slots <- struct{}{}:
	case <-a.ctx.Done():
		b.Release()
		return a.closeErr()
	case <-ctx.Done():
		b.Release()
		return ctx.Err()
	}

	a.sendMu.Lock()
	a.nextSeq++
	seq := a.nextSeq
	hdr := b.Prepend(1 + 8)
	hdr[0] = kindData
	binary.LittleEndian.PutUint64(hdr[1:9], seq)
	buf := b.Detach() //bertha:transfers retransmit queue owns the raw bytes
	a.unacked[seq] = &pending{payload: buf, lastSent: time.Now()}
	a.sendMu.Unlock()

	if err := a.base.Send(ctx, buf); err != nil {
		// First transmission failed; the retransmit loop will retry
		// unless the underlying conn is closed.
		if errors.Is(err, core.ErrClosed) {
			a.fail(err)
			return err
		}
	}
	return nil
}

// Headroom implements core.HeadroomConn.
func (a *arqConn) Headroom() int { return 1 + 8 + core.HeadroomOf(a.base) }

// Recv returns the next message in order, exactly once.
func (a *arqConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := a.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

// RecvBuf is Recv's zero-copy form.
func (a *arqConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	select {
	case m := <-a.out:
		return m, nil
	default:
	}
	select {
	case m := <-a.out:
		return m, nil
	case <-a.ctx.Done():
		return nil, a.closeErr()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (a *arqConn) closeErr() error {
	if err := a.failure(); err != nil {
		return err
	}
	return core.ErrClosed
}

func (a *arqConn) LocalAddr() core.Addr  { return a.base.LocalAddr() }
func (a *arqConn) RemoteAddr() core.Addr { return a.base.RemoteAddr() }

func (a *arqConn) Close() error {
	a.once.Do(func() {
		a.cancel()
	})
	return a.base.Close()
}

// pump is the single reader of the underlying connection: it dispatches
// acknowledgements to the sender state and data to the reorder buffer.
func (a *arqConn) pump() {
	for {
		b, err := core.RecvBuf(a.ctx, a.base)
		if err != nil {
			if a.ctx.Err() == nil {
				a.fail(err)
			}
			return
		}
		msg := b.Bytes()
		if len(msg) < 1 {
			b.Release()
			continue
		}
		switch msg[0] {
		case kindAck:
			if len(msg) == 1+8+8 {
				cum := binary.LittleEndian.Uint64(msg[1:9])
				bitmap := binary.LittleEndian.Uint64(msg[9:17])
				a.handleAck(cum, bitmap)
			}
			b.Release()
		case kindData:
			if len(msg) >= 1+8 {
				seq := binary.LittleEndian.Uint64(msg[1:9])
				b.TrimFront(1 + 8)
				a.handleData(seq, b) // takes ownership of b
			} else {
				b.Release()
			}
		default:
			b.Release()
		}
	}
}

func (a *arqConn) handleAck(cum uint64, bitmap uint64) {
	a.sendMu.Lock()
	released := 0
	for seq := range a.unacked {
		acked := seq <= cum
		if !acked && seq > cum && seq <= cum+64 {
			acked = bitmap&(1<<(seq-cum-1)) != 0
		}
		if acked {
			delete(a.unacked, seq)
			released++
		}
	}
	a.sendMu.Unlock()
	for i := 0; i < released; i++ {
		select {
		case <-a.slots:
		default:
		}
	}
}

// handleData takes ownership of b (the payload with the ARQ header
// already trimmed).
func (a *arqConn) handleData(seq uint64, b *wire.Buf) {
	a.recvMu.Lock()
	switch {
	case seq < a.expect:
		// Duplicate: re-ack below, do not deliver.
		b.Release()
	case seq == a.expect:
		a.deliverLocked(b)
		a.expect++
		for {
			next, ok := a.oob[a.expect]
			if !ok {
				break
			}
			delete(a.oob, a.expect)
			a.deliverLocked(next)
			a.expect++
		}
	default:
		if _, dup := a.oob[seq]; !dup && seq < a.expect+uint64(4*a.cfg.Window) { // bound the buffer
			a.oob[seq] = b
		} else {
			b.Release()
		}
	}
	// Build the ack under the lock for a consistent snapshot.
	cum := a.expect - 1
	var bitmap uint64
	for s := range a.oob {
		if s > cum && s <= cum+64 {
			bitmap |= 1 << (s - cum - 1)
		}
	}
	a.recvMu.Unlock()

	ack := wire.NewBuf(core.HeadroomOf(a.base), 1+8+8)
	ap := ack.Bytes()
	ap[0] = kindAck
	binary.LittleEndian.PutUint64(ap[1:9], cum)
	binary.LittleEndian.PutUint64(ap[9:17], bitmap)
	_ = core.SendBuf(a.ctx, a.base, ack) // ack loss recovered by retransmission
}

func (a *arqConn) deliverLocked(b *wire.Buf) {
	select {
	case a.out <- b:
	case <-a.ctx.Done():
		b.Release()
	}
}

// retransmitLoop resends unacknowledged messages after their timeout,
// with exponential backoff per message.
func (a *arqConn) retransmitLoop() {
	tick := time.NewTicker(a.cfg.RTO / 4)
	defer tick.Stop()
	for {
		select {
		case <-a.ctx.Done():
			return
		case <-tick.C:
		}
		now := time.Now()
		var resend [][]byte
		a.sendMu.Lock()
		for _, p := range a.unacked {
			timeout := a.cfg.RTO << uint(p.retries)
			if maxRTO := 2 * time.Second; timeout > maxRTO {
				timeout = maxRTO
			}
			if now.Sub(p.lastSent) < timeout {
				continue
			}
			p.retries++
			if p.retries > a.cfg.MaxRetries {
				a.sendMu.Unlock()
				a.fail(fmt.Errorf("%w: %d retries", ErrBroken, p.retries-1))
				return
			}
			p.lastSent = now
			resend = append(resend, p.payload)
		}
		a.sendMu.Unlock()
		if len(resend) > 0 {
			a.retransmits.Add(uint64(len(resend)))
		}
		for _, buf := range resend {
			if err := a.base.Send(a.ctx, buf); err != nil {
				if errors.Is(err, core.ErrClosed) {
					a.fail(err)
					return
				}
			}
		}
	}
}

func encodeData(seq uint64, payload []byte) []byte {
	buf := make([]byte, 1+8+len(payload))
	buf[0] = kindData
	binary.LittleEndian.PutUint64(buf[1:9], seq)
	copy(buf[9:], payload)
	return buf
}
