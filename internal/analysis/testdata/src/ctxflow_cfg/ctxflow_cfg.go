// Package ctxflow_cfg pins the reachability filtering the CFG engine
// added to ctxflow: blocking operations in dead code never execute, so
// they must not count against a function. Each "clean" function here
// was a false positive under the pre-CFG walker; the `want` cases prove
// the live-code rules still fire.
package ctxflow_cfg

import "context"

// deadReceive blocks only in code behind an unconditional return: the
// pre-CFG walker counted the dead `<-ch` and flagged dropped-ctx.
func deadReceive(ctx context.Context, ch chan int) {
	if len(ch) == 0 {
		return
	}
	return
	<-ch // unreachable: not a blocking operation of this function
}

// deadAfterPanic blocks only after a panic terminates the path.
func deadAfterPanic(ctx context.Context, ch chan int) {
	panic("unreachable below")
	<-ch
}

// liveReceive is the positive control: the same receive, reachable.
func liveReceive(ctx context.Context, ch chan int) { // want `dropped-ctx`
	<-ch
}
