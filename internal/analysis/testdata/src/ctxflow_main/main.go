// Command ctxflow_main is the golden corpus for ctxflow's main-package
// exemption: a command may wait on time.After and time.Tick, whose
// timers outlive the wait only until the process exits. No line here may
// be flagged.
package main

import "time"

func waitOrGiveUp(ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-time.After(time.Second):
		return 0
	}
}

func poll(done chan struct{}) {
	tick := time.Tick(time.Millisecond)
	for {
		select {
		case <-tick:
		case <-done:
			return
		}
	}
}

func main() {
	done := make(chan struct{})
	close(done)
	poll(done)
	waitOrGiveUp(make(chan int))
}
