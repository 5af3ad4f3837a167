// Package ctxflow_a is the golden corpus for the ctxflow analyzer:
// dropped contexts and detached Background calls, plus the negative
// space around each rule.
package ctxflow_a

import (
	"context"
	"time"

	dep "testdata/ctxflow_dep"
)

// ---- dropped-ctx ----

// DropDirect takes a ctx, ignores it, and blocks on the channel.
func DropDirect(ctx context.Context, ch chan int) int { // want `dropped-ctx`
	return <-ch
}

// DropSleep takes a ctx, ignores it, and sleeps.
func DropSleep(ctx context.Context) { // want `dropped-ctx`
	time.Sleep(time.Second)
}

// blockHelper blocks with no ctx of its own: fine here, but it makes
// same-package callers holding a ctx blockers too.
func blockHelper(ch chan int) int {
	return <-ch
}

// DropViaCallee blocks through a same-package helper.
func DropViaCallee(ctx context.Context, ch chan int) int { // want `dropped-ctx`
	return blockHelper(ch)
}

// DropViaFact blocks through a cross-package callee whose BlocksFact
// was exported when the dependency corpus was analyzed.
func DropViaFact(ctx context.Context, ch chan int) int { // want `dropped-ctx`
	return dep.BlockingWait(ch)
}

// Ctx names context.Context by an alias.
type Ctx = context.Context

// DropAlias is DropDirect with its ctx typed by the alias.
func DropAlias(ctx Ctx, ch chan int) int { // want `dropped-ctx`
	return <-ch
}

// OkSelectDone consumes the ctx in a select arm.
func OkSelectDone(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// OkPassDown forwards the ctx to a consumer.
func OkPassDown(ctx context.Context, ch chan int) int {
	return OkSelectDone(ctx, ch)
}

// OkNonBlocking holds a ctx but never blocks, so not consuming it is
// harmless.
func OkNonBlocking(ctx context.Context, n int) int {
	return n * 2
}

// OkGuardedSelect polls: a select with a default arm does not block.
func OkGuardedSelect(ctx context.Context, ch chan int) (int, bool) {
	select {
	case v := <-ch:
		return v, true
	default:
		return 0, false
	}
}

// OkCtxInGoroutine consumes the ctx inside a launched literal.
func OkCtxInGoroutine(ctx context.Context, ch chan int) {
	go func() {
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}()
}

// ---- background ----

type sender interface {
	Send(ctx context.Context, b []byte) error
}

// Detached hands a fresh Background context to a send, detaching it
// from every cancellation the caller participates in.
func Detached(s sender) error {
	return s.Send(context.Background(), nil) // want `background`
}

// DetachedTODO does the same with TODO.
func DetachedTODO(s sender) error {
	return s.Send(context.TODO(), nil) // want `background`
}

// OkLifecycleRoot mints a cancellable root: passing Background to the
// context package itself is the accepted pattern.
func OkLifecycleRoot() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// OkBoundedRoot bounds the detached call with a timeout root.
func OkBoundedRoot(s sender) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.Send(ctx, nil)
}
