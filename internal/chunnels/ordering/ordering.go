// Package ordering implements the in-order delivery chunnel: sequence
// numbers plus a bounded reorder buffer, without retransmission. Late
// packets beyond the buffer, and packets lost below, are skipped after a
// gap timeout — the delivery model of media and telemetry protocols, and
// a building block cheaper than full reliability when the transport is
// mostly ordered already.
package ordering

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name.
const Type = "ordering"

// Defaults.
const (
	// DefaultBuffer is the reorder buffer size in messages.
	DefaultBuffer = 64
	// DefaultGapTimeout is how long delivery stalls on a missing
	// sequence number before skipping it.
	DefaultGapTimeout = 20 * time.Millisecond
)

// Node builds the DAG node: ordering(buffer, gapTimeoutMillis).
func Node() spec.Node {
	return spec.New(Type, wire.Int(DefaultBuffer), wire.Int(int64(DefaultGapTimeout/time.Millisecond)))
}

// Register installs the userspace fallback implementation.
func Register(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     Type + "/buffer",
			Type:     Type,
			Endpoint: spec.EndpointBoth,
			Location: core.LocUserspace,
		},
		WrapFn: func(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
			buf := int(base.IntOr(args, 0, DefaultBuffer))
			gap := time.Duration(base.IntOr(args, 1, int64(DefaultGapTimeout/time.Millisecond))) * time.Millisecond
			return New(conn, buf, gap)
		},
	})
}

// seqLen is the header: a little-endian sequence number.
const seqLen = 8

// DecodeDroppedCounter counts received messages too short to carry a
// sequence number, in the process telemetry registry.
const DecodeDroppedCounter = "chunnel/ordering/decode_dropped"

var errShort = errors.New("ordering: message shorter than its sequence number")

// New wraps conn with ordered delivery.
func New(conn core.Conn, buffer int, gapTimeout time.Duration) (core.Conn, error) {
	if buffer <= 0 {
		return nil, fmt.Errorf("ordering: invalid buffer %d", buffer)
	}
	if gapTimeout <= 0 {
		gapTimeout = DefaultGapTimeout
	}
	c := &orderConn{
		buffer:  buffer,
		gap:     gapTimeout,
		pendMap: map[uint64]*wire.Buf{},
		expect:  1,
	}
	c.TransformConn = core.WrapTransform(conn, c, DecodeDroppedCounter)
	return c, nil
}

// orderConn's send half is a transform (stamp the next sequence number);
// its receive half is the reorder buffer, which is stateful and so keeps
// its own receive methods over the transform's.
type orderConn struct {
	*core.TransformConn
	buffer int
	gap    time.Duration

	nextSeq atomic.Uint64

	recvMu   sync.Mutex
	expect   uint64
	pendMap  map[uint64]*wire.Buf
	gapSince time.Time
}

func (c *orderConn) Overhead() int { return seqLen }

// Encode stamps the next sequence number into b's headroom. If a burst
// aborts partway the unsent tail's numbers are burned; the receiver's
// gap handling skips them like any loss.
func (c *orderConn) Encode(b *wire.Buf) error {
	binary.LittleEndian.PutUint64(b.Prepend(seqLen), c.nextSeq.Add(1))
	return nil
}

// Decode only rejects what cannot carry a sequence number; the number
// stays on the message for the reorder buffer to read.
func (c *orderConn) Decode(b *wire.Buf) (bool, error) {
	if b.Len() < seqLen {
		return false, errShort
	}
	return true, nil
}

// RecvBufs delivers a contiguous in-order run: first whatever the
// reorder buffer already holds (one lock acquisition for the whole
// run), otherwise one ordered receive — with RecvBuf's full gap
// handling — followed by a drain of anything it unblocked.
func (c *orderConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	if n := c.drainReady(into); n > 0 {
		return n, nil
	}
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return 0, err
	}
	into[0] = b
	return 1 + c.drainReady(into[1:]), nil
}

// drainReady moves the longest already-buffered in-order run into into
// under one recvMu acquisition.
func (c *orderConn) drainReady(into []*wire.Buf) int {
	n := 0
	c.recvMu.Lock()
	for n < len(into) {
		b, ok := c.pendMap[c.expect]
		if !ok {
			break
		}
		delete(c.pendMap, c.expect)
		c.expect++
		c.gapSince = time.Time{}
		into[n] = b
		n++
	}
	c.recvMu.Unlock()
	return n
}

// Recv returns messages in sequence order, skipping gaps after the gap
// timeout. Recv is not safe for concurrent callers (like most ordered
// streams, one reader owns the stream).
func (c *orderConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

// RecvBuf is Recv's zero-copy form; the reorder buffer holds the
// transports' pooled buffers directly.
func (c *orderConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	for {
		// Deliver anything already in order.
		c.recvMu.Lock()
		if b, ok := c.pendMap[c.expect]; ok {
			delete(c.pendMap, c.expect)
			c.expect++
			c.gapSince = time.Time{}
			c.recvMu.Unlock()
			return b, nil
		}
		// Gap handling: if we have buffered future messages and the gap
		// has persisted, skip to the oldest buffered message.
		if len(c.pendMap) > 0 {
			if c.gapSince.IsZero() {
				c.gapSince = time.Now()
			} else if time.Since(c.gapSince) >= c.gap || len(c.pendMap) >= c.buffer {
				lowest := uint64(0)
				for s := range c.pendMap {
					if lowest == 0 || s < lowest {
						lowest = s
					}
				}
				c.expect = lowest
				c.gapSince = time.Time{}
				c.recvMu.Unlock()
				continue
			}
		}
		c.recvMu.Unlock()

		// Wait for more data, bounded by the gap timeout when a gap is
		// open so skipping can proceed.
		rctx := ctx
		var cancel context.CancelFunc
		c.recvMu.Lock()
		waiting := !c.gapSince.IsZero()
		since := c.gapSince
		c.recvMu.Unlock()
		if waiting {
			rctx, cancel = context.WithDeadline(ctx, since.Add(c.gap))
		}
		msg, err := c.TransformConn.RecvBuf(rctx)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			if waiting && rctx.Err() != nil && ctx.Err() == nil {
				continue // gap timer fired: loop and skip
			}
			if errors.Is(err, errShort) {
				continue // malformed: dropped and counted below
			}
			return nil, err
		}
		seq := binary.LittleEndian.Uint64(msg.Bytes())
		msg.TrimFront(seqLen)

		c.recvMu.Lock()
		switch {
		case seq < c.expect:
			// Late packet beyond its window: drop (already skipped).
			c.recvMu.Unlock()
			msg.Release()
		case seq == c.expect:
			c.expect++
			c.gapSince = time.Time{}
			c.recvMu.Unlock()
			return msg, nil
		default:
			if len(c.pendMap) < c.buffer {
				c.pendMap[seq] = msg
			} else {
				msg.Release()
			}
			c.recvMu.Unlock()
		}
	}
}

// Close releases any buffered out-of-order messages.
func (c *orderConn) Close() error {
	err := c.TransformConn.Close()
	c.recvMu.Lock()
	for s, b := range c.pendMap {
		delete(c.pendMap, s)
		b.Release()
	}
	c.recvMu.Unlock()
	return err
}
