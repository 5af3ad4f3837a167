// Package ctxflow_a is the golden corpus for the ctxflow analyzer:
// dropped contexts, detached Background calls, and leaked timers, plus
// the negative space around each rule.
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

// ---- timer-leak ----

// LeakTimer never stops the timer.
func LeakTimer(ch chan int) int {
	t := time.NewTimer(time.Second) // want `timer-leak`
	select {
	case v := <-ch:
		return v
	case <-t.C:
		return 0
	}
}

// LeakTicker never stops the ticker.
func LeakTicker(done chan struct{}) {
	tick := time.NewTicker(time.Millisecond) // want `timer-leak`
	for {
		select {
		case <-tick.C:
		case <-done:
			return
		}
	}
}

// OkStopped defers Stop.
func OkStopped(ch chan int) int {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	select {
	case v := <-ch:
		return v
	case <-t.C:
		return 0
	}
}

// OkEscapes hands the timer to its caller, which owns stopping it.
func OkEscapes() *time.Timer {
	t := time.NewTimer(time.Second)
	return t
}

// LeakAfter waits on time.After in library code: the timer stays heaped
// until it fires, long after the select took ch. OkStopped is the fix.
func LeakAfter(ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-time.After(time.Second): // want `timer-leak.*time.After.*go 1.22`
		return 0
	}
}

// LeakTick polls on a ticker nobody can stop.
func LeakTick(done chan struct{}) {
	tick := time.Tick(time.Millisecond) // want `timer-leak.*time.Tick`
	for {
		select {
		case <-tick:
		case <-done:
			return
		}
	}
}

// OkTimeAfterMethod compares instants: time.Time.After arms no timer.
func OkTimeAfterMethod(deadline time.Time) bool {
	return time.Now().After(deadline)
}

// OkDeadAfter's time.After sits after a return and never runs.
func OkDeadAfter() <-chan time.Time {
	return nil
	return time.After(time.Second)
}
