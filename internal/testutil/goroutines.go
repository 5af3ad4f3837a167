package testutil

import (
	"context"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
)

var groups atomic.Uint64

// Track runs start, and returns a function that counts the goroutines
// start started, directly or through the goroutines it started, that
// have a frame of a function whose name contains fn. The goroutines are
// told apart from every other by a pprof label added to ctx's, which a
// goroutine inherits from the one that starts it.
func Track(ctx context.Context, start func()) (running func(fn string) int) {
	id := strconv.FormatUint(groups.Add(1), 10)
	pprof.Do(ctx, pprof.Labels("testutil.group", id), func(context.Context) { start() })
	label := `"testutil.group":"` + id + `"`
	return func(fn string) int {
		var b strings.Builder
		pprof.Lookup("goroutine").WriteTo(&b, 1)
		n := 0
		// Each record of the profile is a count of goroutines with the
		// same labels and stack: "N @ pcs", "# labels: {...}", and one
		// "#\tpc\tfunction+off\tfile:line" line per frame.
		for _, rec := range strings.Split(b.String(), "\n\n") {
			if !strings.Contains(rec, label) {
				continue
			}
			var count int
			found := false
			for _, line := range strings.Split(rec, "\n") {
				if head, _, ok := strings.Cut(line, " @ "); ok {
					count, _ = strconv.Atoi(head)
				}
				if f := strings.Split(line, "\t"); len(f) >= 3 && strings.Contains(f[2], fn) {
					found = true
				}
			}
			if found {
				n += count
			}
		}
		return n
	}
}
