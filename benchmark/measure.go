package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opDeadline bounds every try of an operation, and opTries every
// operation: an op whose reply has not come inside the deadline is sent
// again, as an application on a datagram transport must, and one that has
// not completed and verified after opTries tries is a failure, never a
// hang. The latency of a retried op runs from its first try, so the
// waiting is in ops_per_s and the percentiles, and retry_ratio says how
// often it happened. Without the retries one op in a few million failed
// on this kind of box (a lost datagram, or the whole VM descheduled past
// the deadline with a window of requests outstanding), in one set of runs
// and not in the next.
const (
	opDeadline = 100 * time.Millisecond
	opTries    = 20
	opLimit    = opTries * opDeadline
)

// segments is fixed: a metric is the median of this many per-segment
// values, each from its own set-up of the workload. A shorter run
// shortens the segments, never their count.
const segments = 5

// numConns is the load shape: this many client connections, one
// goroutine each, closed loop.
const numConns = 2

// recorder collects one client goroutine's results while its segment is
// being measured. Only its owning goroutine writes it until the segment
// has joined.
type recorder struct {
	on *atomic.Bool // set between the warm-up's end and the segment's
	// lat holds verified ops' latencies (ns; opLimit is inside uint32,
	// and a slower op reads as the type's maximum), connLat the connection-setup part where the
	// workload has one.
	lat     []uint32
	connLat []uint32
	failed  int
	wrong   int // of failed: a reply came and failed verification
	retries int // tries after an op's first
	redials int // connections abandoned as dead on arrival (churn only)
}

func newRecorder(on *atomic.Bool, capHint int) *recorder {
	return &recorder{on: on, lat: make([]uint32, 0, capHint)}
}

// errWrongReply marks an op that got a reply and found it wrong: the one
// kind of failure that says the library's output is incorrect, not late.
var errWrongReply = errors.New("reply failed verification")

// ok records a verified op; fail a failed one (out of tries, or wrong
// bytes). Ops finishing outside the measured window are dropped.
func (r *recorder) ok(d time.Duration) {
	if r.on.Load() {
		r.lat = append(r.lat, uint32(min(d, math.MaxUint32)))
	}
}

func (r *recorder) connSetup(d time.Duration) {
	if r.on.Load() {
		r.connLat = append(r.connLat, uint32(min(d, math.MaxUint32)))
	}
}

func (r *recorder) redial(n int) {
	if r.on.Load() {
		r.redials += n
	}
}

func (r *recorder) retry(n int) {
	if r.on.Load() {
		r.retries += n
	}
}

func (r *recorder) fail(err error) {
	if r.on.Load() {
		r.failed++
		if errors.Is(err, errWrongReply) {
			r.wrong++
		}
	}
}

// client is one connection's load generator: it issues ops back to back
// until stop is set, reporting each to rec.
type client interface {
	run(stop *atomic.Bool, rec *recorder)
}

// world is a set-up workload: a server, numConns connected clients, and
// the teardown that stops and joins what set-up started.
type world struct {
	clients []client
	close   func()
}

// snapshot is the process state at a segment boundary.
type snapshot struct {
	t       time.Time
	cpu     time.Duration
	mallocs uint64
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		t:       time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// stat is one metric over the run's segments.
type stat struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"` // samples behind the median segment's value
	Values []float64 `json:"values"`
}

func newStat(values []float64, n int) stat {
	s := stat{Median: median(values), Min: values[0], Max: values[0], N: n, Values: values}
	for _, v := range values {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	return s
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentileUS returns the q-quantile in µs of a segment's ops, where the
// failed ops sit beyond every verified one: a quantile that lands among
// them reads as opLimit. sorted holds the verified latencies (ns).
func percentileUS(sorted []uint32, failed int, q float64) float64 {
	attempted := len(sorted) + failed
	if attempted == 0 {
		return 0
	}
	k := int(q*float64(attempted)+0.999999) - 1 // ceil(q·n) − 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		return float64(opLimit) / 1e3
	}
	return float64(sorted[k]) / 1e3
}

// runResult is one workload's end-to-end measurement.
type runResult struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Wrong     int    `json:"wrong"`   // of Failed: replies that failed verification
	Retries   int    `json:"retries"` // tries after an op's first
	// Measured is how many segments the run measured to get its
	// segments quiet ones.
	Measured int             `json:"segments_measured"`
	Metrics  map[string]stat `json:"metrics"`
}

// segment is one measured window of one freshly set-up world.
type segment struct {
	lat, connLat                    []uint32 // sorted
	failed, wrong, retries, redials int
	from, to                        snapshot
}

// measureSegment runs w's clients through a warm-up and one measured
// window, then stops and joins them.
func measureSegment(w *world, warm, length time.Duration) segment {
	var on, stop atomic.Bool
	recs := make([]*recorder, len(w.clients))
	var wg sync.WaitGroup
	for i, c := range w.clients {
		// Sized for ~100k ops/s per connection; append grows it if a
		// faster library ever needs more.
		recs[i] = newRecorder(&on, int(length.Seconds()*100e3)+1024)
		wg.Add(1)
		go func(c client, rec *recorder) {
			defer wg.Done()
			c.run(&stop, rec)
		}(c, recs[i])
	}
	time.Sleep(warm)
	var seg segment
	seg.from = takeSnapshot()
	on.Store(true)
	time.Sleep(length)
	seg.to = takeSnapshot()
	on.Store(false)
	stop.Store(true)
	wg.Wait()
	for _, r := range recs {
		seg.lat = append(seg.lat, r.lat...)
		seg.connLat = append(seg.connLat, r.connLat...)
		seg.failed += r.failed
		seg.wrong += r.wrong
		seg.retries += r.retries
		seg.redials += r.redials
	}
	slices.Sort(seg.lat)
	slices.Sort(seg.connLat)
	return seg
}

// maxSegments bounds how many segments a run measures to get segments
// quiet ones. A segment is disturbed when the spin-loop readings before
// and after it are both more than quietSlack above the median of the
// run's readings. Both, and the median, because single readings stray by
// 5-10 % either way when the host lets an idle core change its clock;
// a slow phase of the shared host this was written on lasts half a
// minute, reads 4-12 % slow throughout and slows the workloads by
// 25-35 % (README, "Only quiet segments count").
const (
	maxSegments = segments + 4
	quietSlack  = 1.025
)

// extraSetups is how many times a run sets the workload up and tears it
// down again before its first segment, for setup_s alone: one set-up
// takes a millisecond or a few, too little to time steadily, and fifty
// of them make whatever a change adds to a set-up fifty times as
// visible.
const extraSetups = 50

// segValues is one measured segment reduced to its metric values.
type segValues struct {
	calib      float64 // the faster of the spin-loop readings before and after
	vals       map[string]float64
	ops, conns int
}

// measure sets w up afresh for every segment, so that whatever a world
// settles into (which goroutine shares a core with which, how far the
// heap has grown) is drawn five times, not once, and reduces each metric
// to the median of its per-segment values. A disturbed segment does not
// count: the run measures on, up to maxSegments, until it has segments
// quiet ones, and fills up with the least disturbed if it cannot.
// setup_s is the time from the run's start until the first segment's
// world stands and has carried its first verified op: extraSetups
// set-ups and teardowns, one calibration reading (a fixed amount of CPU
// work, which ties the number to the box's speed and nothing else) and
// the first segment's set-up.
func measure(w workloadDef, cfg runConfig, warm, length time.Duration) (runResult, error) {
	start := time.Now()
	res := runResult{Workload: w.name, Metrics: map[string]stat{}}
	var segs []segValues
	redials := 0
	for i := 0; i < extraSetups; i++ {
		wd, err := w.setup(cfg)
		if err != nil {
			return res, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		wd.close()
	}
	readings := []float64{calibrate()}
	limit := 0.0 // the slowest reading that still counts as quiet
	for quiet := 0; quiet < segments && len(segs) < maxSegments; {
		wd, err := w.setup(cfg)
		if err != nil {
			return res, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if len(segs) == 0 {
			res.Metrics["setup_s"] = newStat([]float64{time.Since(start).Seconds()}, extraSetups+1)
		}
		seg := measureSegment(wd, warm, length)
		wd.close()
		before := readings[len(readings)-1]
		readings = append(readings, calibrate())

		res.Attempted += len(seg.lat) + seg.failed
		res.Failed += seg.failed
		res.Wrong += seg.wrong
		res.Retries += seg.retries
		redials += seg.redials
		ops := float64(max(len(seg.lat), 1)) // a segment of failures only: keep the ratios finite
		wall := seg.to.t.Sub(seg.from.t).Seconds()
		vals := map[string]float64{
			"ops_per_s":         float64(len(seg.lat)) / wall,
			"cpu_us_per_op":     float64(seg.to.cpu-seg.from.cpu) / 1e3 / ops,
			"allocs_per_op":     float64(seg.to.mallocs-seg.from.mallocs) / ops,
			"conn_setup_p50_us": percentileUS(seg.connLat, 0, 0.50),
			"conn_setup_p99_us": percentileUS(seg.connLat, 0, 0.99),
		}
		for _, q := range []int{50, 95, 99} {
			vals[fmt.Sprintf("op_p%d_us", q)] = percentileUS(seg.lat, seg.failed, float64(q)/100)
		}
		segs = append(segs, segValues{calib: min(before, readings[len(readings)-1]), vals: vals,
			ops: len(seg.lat) + seg.failed, conns: len(seg.connLat)})

		limit = quietSlack * median(readings)
		quiet = 0
		for _, s := range segs {
			if s.calib <= limit {
				quiet++
			}
		}
	}
	res.Measured = len(segs)
	// Quiet segments in the order measured, then the others, least
	// disturbed first.
	sort.SliceStable(segs, func(i, j int) bool { return max(segs[i].calib, limit) < max(segs[j].calib, limit) })
	segs = segs[:segments]

	var nOps, nConn []int
	for _, s := range segs {
		nOps = append(nOps, s.ops)
		nConn = append(nConn, s.conns)
	}
	sort.Ints(nOps)
	sort.Ints(nConn)
	for k := range segs[0].vals {
		values := make([]float64, segments)
		for i, s := range segs {
			values[i] = s.vals[k]
		}
		n := nOps[segments/2]
		if strings.HasPrefix(k, "conn_setup") {
			n = nConn[segments/2]
		}
		res.Metrics[k] = newStat(values, n)
	}
	attempted := float64(max(res.Attempted, 1))
	res.Metrics["fail_ratio"] = newStat([]float64{float64(res.Failed) / attempted}, res.Attempted)
	res.Metrics["retry_ratio"] = newStat([]float64{float64(res.Retries) / attempted}, res.Attempted)
	res.Metrics["connect_churn.dead_on_arrival_ratio"] = newStat([]float64{float64(redials) / attempted}, res.Attempted)
	res.Metrics["peak_rss_mb"] = newStat([]float64{peakRSSMB()}, 1)
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// watchdog makes a hang an error: if stop is not called within limit it
// dumps every goroutine and exits non-zero.
func watchdog(what string, limit time.Duration) (stop func()) {
	t := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v; goroutines:\n", what, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// opContext is the deadline of one try of an operation.
func opContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), opDeadline)
}
