// Package batchcontract_a is the golden corpus for the batchcontract
// analyzer. The clean functions mirror the real implementations in
// the tree (the UDP single-element degradation, the pipe suffix
// release, whole-burst delegation, shard sub-burst splitting); the
// `want` cases break each contract clause in the smallest way.
package batchcontract_a

import (
	"context"
	"errors"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

var errDown = errors.New("down")

// ---- tail-leak ----

// tailLeak forgets the unsent tail when a mid-burst send fails.
type tailLeak struct{ inner core.Conn }

func (c *tailLeak) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	for _, b := range bs {
		if err := core.SendBuf(ctx, c.inner, b); err != nil {
			return err // want `tail-leak`
		}
	}
	return nil
}

// tailClean releases the strict tail and counts honestly — the
// core.SendBufs fallback-loop pattern (Sent may be one less than the
// released start because the failed element was consumed separately).
type tailClean struct{ inner core.Conn }

func (c *tailClean) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	for i, b := range bs {
		if err := core.SendBuf(ctx, c.inner, b); err != nil {
			core.ReleaseAll(bs[i+1:])
			return &core.BatchError{Sent: i, Err: err}
		}
	}
	return nil
}

// delegate hands the whole burst down: the delegation call is the
// coverage, including for the error it returns.
type delegate struct{ inner core.Conn }

func (c *delegate) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	return core.SendBufs(ctx, c.inner, bs)
}

// single degrades a one-element burst to a single send — the UDP
// transport pattern. bs[0] covers the burst only because the
// len(bs) == 1 branch proved there is nothing behind it.
type single struct{ inner core.Conn }

func (c *single) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	if len(bs) == 0 {
		return nil
	}
	if len(bs) == 1 {
		if err := core.SendBuf(ctx, c.inner, bs[0]); err != nil {
			return &core.BatchError{Sent: 0, Err: err}
		}
		return nil
	}
	core.ReleaseAll(bs)
	return errDown
}

// unguarded does the same single send without the length proof: for
// any burst longer than one, everything behind bs[0] leaks.
type unguarded struct{ inner core.Conn }

func (c *unguarded) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	if err := core.SendBuf(ctx, c.inner, bs[0]); err != nil {
		return err // want `tail-leak`
	}
	return nil
}

// shardStyle splits the burst into sub-bursts; the bounded slice does
// not cover the tail, the explicit ReleaseAll(bs[j:]) does.
type shardStyle struct{ shards []core.Conn }

func (c *shardStyle) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	sent := 0
	i := 0
	for i < len(bs) {
		j := i + 1
		for j < len(bs) && sameShard(bs[i], bs[j]) {
			j++
		}
		if err := core.SendBufs(ctx, c.shards[0], bs[i:j]); err != nil {
			core.ReleaseAll(bs[j:])
			return &core.BatchError{Sent: sent + core.BatchSent(err), Err: err}
		}
		sent += j - i
		i = j
	}
	return nil
}

// shardLeak makes the classic splitting mistake: the failed sub-burst
// cleaned up after itself, but bs[j:] — the part never attempted — is
// abandoned. A bounded slice is not suffix coverage.
type shardLeak struct{ shards []core.Conn }

func (c *shardLeak) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	i := 0
	for i < len(bs) {
		j := i + 1
		for j < len(bs) && sameShard(bs[i], bs[j]) {
			j++
		}
		if err := core.SendBufs(ctx, c.shards[0], bs[i:j]); err != nil {
			return err // want `tail-leak`
		}
		i = j
	}
	return nil
}

func sameShard(a, b *wire.Buf) bool { return a.Len() == b.Len() }

// refined enqueues the burst; the trailing `return err` is provably
// nil (the non-nil case returned above), so it is a success path and
// needs no coverage of its own.
type refined struct {
	q []*wire.Buf //bertha:queue drained by the flush path, which owns the release
}

func (c *refined) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	err := ctx.Err()
	if err != nil {
		core.ReleaseAll(bs)
		return &core.BatchError{Sent: 0, Err: err}
	}
	c.q = append(c.q, bs...)
	return err
}

// refinedBad returns a possibly non-nil error with nothing consuming
// the burst on that path.
type refinedBad struct{ inner core.Conn }

func (c *refinedBad) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	err := ctx.Err()
	return err // want `tail-leak`
}

// ---- sent-miscount ----

// overcount releases from i but claims i+1 went out: the caller would
// double-count the failed message.
type overcount struct{ inner core.Conn }

func (c *overcount) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	for i := range bs {
		if err := core.SendBuf(ctx, c.inner, bs[i]); err != nil {
			core.ReleaseAll(bs[i:])
			return &core.BatchError{Sent: i + 1, Err: err} // want `sent-miscount`
		}
	}
	return nil
}

// batchError names core.BatchError by an alias.
type batchError = core.BatchError

// aliasOvercount is overcount, reporting through the alias.
type aliasOvercount struct{ inner core.Conn }

func (c *aliasOvercount) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	for i := range bs {
		if err := core.SendBuf(ctx, c.inner, bs[i]); err != nil {
			core.ReleaseAll(bs[i:])
			return &batchError{Sent: i + 1, Err: err} // want `sent-miscount`
		}
	}
	return nil
}

// undercount releases the strict tail but reports two fewer than were
// transmitted.
type undercount struct{ inner core.Conn }

func (c *undercount) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	for i := range bs {
		if err := core.SendBuf(ctx, c.inner, bs[i]); err != nil {
			core.ReleaseAll(bs[i+1:])
			return &core.BatchError{Sent: i - 1, Err: err} // want `sent-miscount`
		}
	}
	return nil
}

// ---- recv-partial ----

type recvPartial struct{ inner core.Conn }

func (c *recvPartial) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	if len(into) == 0 {
		return 0, nil
	}
	b, err := core.RecvBuf(ctx, c.inner)
	if err != nil {
		return 0, err
	}
	into[0] = b
	if b.Len() == 0 {
		return 1, errDown // want `recv-partial`
	}
	return 1, nil
}

// ---- use-after-send (caller side) ----

func readAfterSend(ctx context.Context, conn core.BatchConn, bs []*wire.Buf) int {
	if err := conn.SendBufs(ctx, bs); err != nil {
		return 0
	}
	return bs[0].Len() // want `use-after-send`
}

// nilAfterFlush is the coalescer pattern: element stores, index-only
// ranges, and len stay legal after the handoff.
func nilAfterFlush(ctx context.Context, conn core.BatchConn, bs []*wire.Buf) int {
	conn.SendBufs(ctx, bs)
	for i := range bs {
		bs[i] = nil
	}
	return len(bs)
}

func doubleRelease(bs []*wire.Buf) {
	core.ReleaseAll(bs)
	core.ReleaseAll(bs) // want `use-after-send`
}

func rangeAfterSend(ctx context.Context, conn core.BatchConn, bs []*wire.Buf) int {
	conn.SendBufs(ctx, bs)
	n := 0
	for _, b := range bs { // want `use-after-send`
		if b != nil {
			n++
		}
	}
	return n
}

func resliceAfterSend(ctx context.Context, conn core.BatchConn, bs []*wire.Buf) {
	conn.SendBufs(ctx, bs)
	core.ReleaseAll(bs[1:]) // want `use-after-send`
}

// pathSensitive sends on one arm only; the other arm still owns the
// burst and may read it.
func pathSensitive(ctx context.Context, conn core.BatchConn, bs []*wire.Buf, flush bool) int {
	if flush {
		conn.SendBufs(ctx, bs)
		return 0
	}
	return bs[0].Len()
}

// rebound forgets the old burst when the variable is rebound.
func rebound(ctx context.Context, conn core.BatchConn, bs []*wire.Buf) int {
	conn.SendBufs(ctx, bs)
	bs = make([]*wire.Buf, 4)
	return bs[0].Len()
}
