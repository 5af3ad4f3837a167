// Package bufown_a is the golden corpus for the bufown analyzer: each
// // want comment pins one diagnostic; lines without a comment must stay
// clean.
package bufown_a

import (
	"context"
	"errors"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

var errShort = errors.New("short")

// useAfterRelease reads a Buf after its terminal Release.
func useAfterRelease(b *wire.Buf) int {
	b.Release()
	return b.Len() // want `use-after-release`
}

// doubleRelease releases the same Buf twice on one path.
func doubleRelease(b *wire.Buf) {
	b.Release()
	b.Release() // want `double-release`
}

// bufRef names a pointer to the public alias bertha.Buf, itself a
// *types.Alias of wire.Buf.
type bufRef = *bertha.Buf

// aliasDoubleRelease is doubleRelease through both aliases.
func aliasDoubleRelease(b bufRef) {
	b.Release()
	b.Release() // want `double-release`
}

// leakOnError returns early on a validation failure without consuming
// the Buf it already owns — the classic leak-on-error path.
func leakOnError(ctx context.Context, c core.BufConn) error {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return err // fine: b is nil when err != nil
	}
	if b.Len() < 4 {
		return errShort // want `leak`
	}
	return c.SendBuf(ctx, b)
}

// leakAtEnd drops an owned Buf on the floor at function end.
func leakAtEnd(headroom int) {
	b := wire.NewBuf(headroom, 64)
	_ = b.Len()
} // want `leak`

// storeWithoutAnnotation transfers ownership into a map without the
// required //bertha:transfers marker.
func storeWithoutAnnotation(m map[int]*wire.Buf, b *wire.Buf) {
	m[0] = b // want `transfer`
}

// detachWithoutAnnotation removes a Buf from pooling silently.
func detachWithoutAnnotation(b *wire.Buf) []byte {
	return b.Detach() // want `transfer`
}

// annotatedTransfer is the sanctioned form: ownership leaves through an
// annotated statement, so no diagnostic fires.
func annotatedTransfer(m map[int]*wire.Buf, b *wire.Buf) {
	m[0] = b //bertha:transfers retransmit-queue keeps it
}

// borrows b: the caller keeps ownership, the callee only reads.
//
//bertha:borrows b
func peek(b *wire.Buf) int { return b.Len() }

// borrowedCallKeepsOwnership shows a borrowing callee does not consume:
// the caller still releases, with no double-release or leak.
func borrowedCallKeepsOwnership(headroom int) int {
	b := wire.NewBuf(headroom, 16)
	n := peek(b)
	b.Release()
	return n
}

// deferredRelease consumes via defer on every path.
func deferredRelease(ctx context.Context, c core.BufConn) (int, error) {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return 0, err
	}
	defer b.Release()
	if b.Len() == 0 {
		return 0, errShort
	}
	return b.Len(), nil
}

// sendConsumes transfers ownership to the conn on both branches.
func sendConsumes(ctx context.Context, c core.BufConn, fast bool, b *wire.Buf) error {
	if fast {
		return c.SendBuf(ctx, b)
	}
	return core.SendBuf(ctx, c, b)
}

// releasedOnAllPaths branches but consumes everywhere: clean.
func releasedOnAllPaths(b *wire.Buf, keep bool) []byte {
	if keep {
		return b.CopyOut()
	}
	b.Release()
	return nil
}

// loopIterationLeak acquires a fresh Buf each iteration and never
// consumes it before the next one arrives.
func loopIterationLeak(ctx context.Context, c core.BufConn, n int) {
	for i := 0; i < n; i++ {
		b, err := c.RecvBuf(ctx)
		if err != nil {
			return
		}
		_ = b.Len()
	} // want `leak`
}

// useAfterDetach detaches (annotated) and then touches the dead Buf.
func useAfterDetach(b *wire.Buf) int {
	raw := b.Detach() //bertha:transfers caller keeps the raw bytes
	_ = raw
	return b.Len() // want `use-after-release`
}

// recvIntoSlice is the RecvBufs contract: storing an owned Buf into an
// element of a []*wire.Buf parameter hands it to the caller — the store
// is the transfer and needs no annotation.
func recvIntoSlice(ctx context.Context, c core.BufConn, into []*wire.Buf) (int, error) {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return 0, err
	}
	into[0] = b // fine: the caller owns the slice and receives the Buf
	return 1, nil
}

// storeIntoLocalSlice is NOT the RecvBufs shape: the slice is local, so
// the store still needs a //bertha:transfers annotation.
func storeIntoLocalSlice(ctx context.Context, c core.BufConn) error {
	pend := make([]*wire.Buf, 1)
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return err
	}
	pend[0] = b // want `transfer`
	_ = pend
	return nil
}

// nilCheckedHelper returns an owned Buf on one branch and nil on the
// other; the caller's fallthrough after `if msg != nil { return }`
// carries no ownership and must not flag as a leak.
func nilCheckedHelper(ctx context.Context, c core.BufConn) (*wire.Buf, error) {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	if b.Len() < 2 {
		b.Release()
		return nil, nil
	}
	return b, nil
}

// nilRefinedLoop is the batch-decode shape: each iteration either
// returns the completed message or continues with msg == nil. Clean.
func nilRefinedLoop(ctx context.Context, c core.BufConn) (*wire.Buf, error) {
	for {
		msg, err := nilCheckedHelper(ctx, c)
		if err != nil {
			return nil, err
		}
		if msg != nil {
			return msg, nil
		}
	}
}

// coalesceQueue is the send-coalescer shape: the annotated field is a
// declared send queue, so enqueue stores and appends transfer ownership
// to the drain path without per-statement annotations.
type coalesceQueue struct {
	pending []*wire.Buf //bertha:queue drained by flush, which releases
	n       int
}

// enqueueStore stores into the declared queue: sanctioned, no
// annotation needed at the statement.
func (q *coalesceQueue) enqueueStore(ctx context.Context, c core.BufConn) error {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return err
	}
	q.pending[q.n] = b // fine: //bertha:queue field, drain releases
	q.n++
	return nil
}

// enqueueAppend appends onto the declared queue: the enqueue form of
// the same sanctioned transfer.
func (q *coalesceQueue) enqueueAppend(ctx context.Context, c core.BufConn) error {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return err
	}
	q.pending = append(q.pending, b) // fine: //bertha:queue field
	return nil
}

// plainQueue has no //bertha:queue annotation: stores into and appends
// onto its slice field remain unsanctioned transfers.
type plainQueue struct {
	pending []*wire.Buf
	n       int
}

func (q *plainQueue) storeUnsanctioned(ctx context.Context, c core.BufConn) error {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return err
	}
	q.pending[q.n] = b // want `transfer`
	q.n++
	return nil
}

func (q *plainQueue) appendUnsanctioned(ctx context.Context, c core.BufConn) error {
	b, err := c.RecvBuf(ctx)
	if err != nil {
		return err
	}
	q.pending = append(q.pending, b) // want `transfer`
	return nil
}
