package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertha-net/bertha/bertha"
)

// smokeCfg points the benchmark's scratch directory at the test's own
// and declares the box quiet: a smoke run has no time for spin loops.
func smokeCfg(t *testing.T) runConfig {
	t.Helper()
	buildRoot = t.TempDir()
	real := calibrate
	calibrate = func() float64 { return 1 }
	t.Cleanup(func() { calibrate = real })
	return runConfig{seed: 7, sockDir: buildRoot}
}

// TestSchema keeps BENCHMARK.json and the Go definitions in step and
// inside the driver's limits.
func TestSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, m metricDef, bounded bool) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("%s metric name %q is malformed or repeated", kind, m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
		if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !bounded && m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if n := len(file.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
	if n := len(file.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", n, len(endToEnd))
	}
	for i, m := range file.EndToEnd {
		check("end-to-end", m, true)
		if m != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, endToEnd[i])
		}
	}
	per := perLayer()
	if n := len(file.PerLayer); n < 1 || n > 128 || n != len(per) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", n, len(per))
	}
	for i, m := range file.PerLayer {
		check("per-layer", m, false)
		if m != per[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, per[i])
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
}

// TestSmokeWorkloads runs every workload end to end for a fraction of a
// second: every metric is there, nothing is zero, nothing hangs.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			defer watchdog(w.name, 30*time.Second)()
			res, err := measure(w, smokeCfg(t), 10*time.Millisecond, 30*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed*2 > res.Attempted {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if s, ok := res.Metrics[m.Name]; !ok || !(s.Median > 0) || len(s.Values) == 0 {
					t.Errorf("%s = %+v", m.Name, s)
				}
			}
		})
	}
}

// TestSmokeTraced runs every traced pass briefly: each workload's rows
// are all there and sum to the ops they describe.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			defer watchdog(w.name, 30*time.Second)()
			tw, err := setupTraced(w.name, smokeCfg(t))
			if err != nil {
				t.Fatal(err)
			}
			var opUS float64
			inner := tw.rows
			tw.rows = func(ops []opWindow, spans []span) (map[string]float64, float64) {
				rows, us := inner(ops, spans)
				opUS = us
				return rows, us
			}
			rows, p50, n := tracePass(tw, 200*time.Millisecond)
			if n == 0 || p50 <= 0 {
				t.Fatalf("%d traced ops, p50 %v", n, p50)
			}
			sum := 0.0
			for _, name := range traceRowNames(w.name) {
				v, ok := rows[name]
				if !ok || v < 0 {
					t.Errorf("row %s = %v (present %v)", name, v, ok)
				}
				sum += v
			}
			if math.Abs(sum-opUS) > 0.01*opUS {
				t.Errorf("rows sum to %.3f µs, the ops they describe take %.3f µs", sum, opUS)
			}
		})
	}
}

func TestSmokeLayers(t *testing.T) {
	smokeCfg(t)
	rows := runLayers(time.Millisecond)
	for _, m := range layerRows {
		if v, ok := rows[m.Name]; !ok || v < 0 || math.IsNaN(v) {
			t.Errorf("%s = %v (present %v)", m.Name, v, ok)
		}
	}
	for _, must := range []string{"transport.pipe.rtt_us_64", "transport.reactor.rtt_us_64",
		"chunnels.crypt.ns_per_msg_64", "core.negotiate.handshake_us", "chunnels.framing.frames_per_msg_16k"} {
		if !(rows[must] > 0) {
			t.Errorf("%s = %v, want > 0", must, rows[must])
		}
	}
}

// TestContractLine drives the command the way the driver does.
func TestContractLine(t *testing.T) {
	smokeCfg(t)
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		args := []string{"--workload", "echo_small", "--seed", "5", "--seconds", "0.5", "--trace", trace}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("keys: %v", line)
		}
		var got contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer()
		}
		if !got.Correct || got.Attempted < 1 || len(got.Metrics) != len(want) {
			t.Errorf("trace %s: correct %v, attempted %d, %d metrics (want %d)",
				trace, got.Correct, got.Attempted, len(got.Metrics), len(want))
		}
		for _, m := range want {
			if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v)", trace, m.Name, g, ok)
			}
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}

// --- unit tests ---

// TestSelfTimeTelescopes builds one ping-pong op by hand: the rows must
// sum to the op exactly, a blocked receive must not be charged for the
// time before its message existed, and the handler's time is its own.
func TestSelfTimeTelescopes(t *testing.T) {
	l := rowLayout{layers: 2} // layers: 0 chunnel, 1 transport
	sp := func(side, dir, layer uint8, start, end int64) span {
		return span{start: start, end: end, op: 1, side: side, dir: dir, layer: layer}
	}
	spans := []span{
		sp(sideClient, dirSend, 0, 100, 160), // chunnel send, 10 before and 10 after the transport
		sp(sideClient, dirSend, 1, 110, 150),
		sp(sideServer, dirRecv, 0, 5, 230), // blocked since before the op began
		sp(sideServer, dirRecv, 1, 6, 200),
		sp(sideServer, dirSend, 0, 250, 300), // handler ran 230..250
		sp(sideServer, dirSend, 1, 260, 290),
		sp(sideClient, dirRecv, 0, 165, 380),
		sp(sideClient, dirRecv, 1, 166, 350),
	}
	w := opWindow{op: 1, start: 100, end: 400}
	rows := selfTimes(w, spans, l)
	sum := 0.0
	for _, v := range rows {
		sum += v
	}
	if sum != float64(w.end-w.start) {
		t.Fatalf("rows sum to %v, the op is %v", sum, w.end-w.start)
	}
	want := map[int]float64{
		l.send(0):     (10 + 10) + (10 + 10),     // before and after the transport call, client and server
		l.send(1):     40 + 30,                   // the transport calls themselves
		l.recv(1):     (200 - 160) + (350 - 300), // since the peer's transmit returned and its caller unwound
		l.recv(0):     (230 - 200) + (380 - 350), // after the layer below returned
		l.serverApp(): 250 - 230,                 // between the server's receive and its reply
		l.inFlight():  400 - 380,                 // owned by no span
	}
	for row, v := range want {
		if rows[row] != v {
			t.Errorf("row %d = %v, want %v (all rows %v)", row, rows[row], v, rows)
		}
	}
}

func TestAssignByTime(t *testing.T) {
	ops := []opWindow{{op: 11, conn: 0, start: 100, end: 200}, {op: 12, conn: 0, start: 210, end: 300}, {op: 21, conn: 1, start: 100, end: 300}}
	spans := []span{
		{conn: 0, dir: dirRecv, start: 50, end: 150},  // blocked before op 11 began: by its end
		{conn: 0, dir: dirSend, start: 190, end: 205}, // returns after op 11 ended: by its start
		{conn: 0, dir: dirRecv, start: 160, end: 250},
		{conn: 1, dir: dirSend, start: 120, end: 130},
		{conn: 0, dir: dirSend, start: 204, end: 206}, // between ops: nobody's
	}
	assignByTime(spans, ops)
	for i, want := range []uint64{11, 11, 12, 21, 0} {
		if spans[i].op != want {
			t.Errorf("span %d assigned to op %d, want %d", i, spans[i].op, want)
		}
	}
}

func TestMedianBand(t *testing.T) {
	var ops []opWindow
	for i := 1; i <= 1000; i++ {
		ops = append(ops, opWindow{op: uint64(i), start: 0, end: int64(i)})
	}
	band, med := medianBand(ops)
	if med != 501 || len(band) != 20 {
		t.Fatalf("median %v, band of %d", med, len(band))
	}
	for _, i := range band {
		if d := ops[i].end; d < 491 || d > 511 {
			t.Errorf("op of duration %d in the median band", d)
		}
	}
}

// TestDisturbedSegmentsAreMeasuredAgain feeds measure a scripted
// calibration loop: a segment with a slow reading on both sides costs
// one more segment; a single stray reading costs nothing.
func TestDisturbedSegmentsAreMeasuredAgain(t *testing.T) {
	defer func(f func() float64) { calibrate = f }(calibrate)
	idle := workloadDef{name: "idle", setup: func(runConfig) (*world, error) {
		return &world{close: func() {}}, nil
	}}
	for _, c := range []struct {
		readings []float64 // one before the first segment, one after each
		measured int
	}{
		{[]float64{100, 101, 99, 100, 102, 100}, segments},
		// Strays either way, never two slow ones in a row.
		{[]float64{100, 110, 100, 90, 100, 112}, segments},
		// Readings 3 to 5 are slow: segments 3 and 4 lie between them.
		{[]float64{100, 100, 110, 108, 111, 100, 100, 100}, segments + 2},
		// Slow for most of the run: the median cannot tell, nothing is set aside.
		{[]float64{110, 111, 109, 112, 100, 100}, segments},
		// A box that speeds up all the while: every median is a new one.
		{[]float64{158, 150, 142, 135, 128, 122, 116, 110, 105}, segments + 3},
	} {
		i := 0
		calibrate = func() float64 { i++; return c.readings[i-1] }
		res, err := measure(idle, runConfig{}, time.Millisecond, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.Measured != c.measured || len(res.Metrics["ops_per_s"].Values) != segments {
			t.Errorf("readings %v: %d segments measured, want %d; %d counted", c.readings,
				res.Measured, c.measured, len(res.Metrics["ops_per_s"].Values))
		}
	}
}

func TestMedianOfSegments(t *testing.T) {
	s := newStat([]float64{5, 1, 9, 3, 100}, 42)
	if s.Median != 5 || s.Min != 1 || s.Max != 100 || s.N != 42 {
		t.Errorf("%+v", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

// TestFailedOpsBeyondEveryPercentile: a failed op counts as slower than
// any verified one.
func TestFailedOpsBeyondEveryPercentile(t *testing.T) {
	lat := make([]uint32, 98) // 98 verified ops of 1..98 µs
	for i := range lat {
		lat[i] = uint32(i+1) * 1000
	}
	limit := float64(opLimit) / 1e3
	if p := percentileUS(lat, 0, 0.99); p != 98 {
		t.Errorf("p99 without failures %v", p)
	}
	if p := percentileUS(lat, 2, 0.50); p != 50 {
		t.Errorf("p50 with 2 failures in 100 %v", p)
	}
	if p := percentileUS(lat, 2, 0.98); p != 98 {
		t.Errorf("p98 with 2 failures in 100 %v", p)
	}
	if p := percentileUS(lat, 2, 0.99); p != limit {
		t.Errorf("p99 with 2 failures in 100 = %v, want the op limit %v", p, limit)
	}
	if p := percentileUS(nil, 3, 0.5); p != limit {
		t.Errorf("all failed: %v", p)
	}
}

// lossyConn loses the sends whose numbers (from 1) are in lose.
type lossyConn struct {
	bertha.Conn
	lose  map[int]bool
	sends int
}

func (c *lossyConn) Send(ctx context.Context, p []byte) error {
	c.sends++
	if c.lose[c.sends] {
		return nil
	}
	return c.Conn.Send(ctx, p)
}

// TestLostMessagesAreRetried: an op whose message is lost is sent again
// at its deadline and completes, counted as a retry and not as a failure,
// with its latency running from the first try.
func TestLostMessagesAreRetried(t *testing.T) {
	cfg := smokeCfg(t)
	var on atomic.Bool
	on.Store(true)

	w, err := setupEcho(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	ec := w.clients[0].(*echoClient)
	ec.conn = &lossyConn{Conn: ec.conn, lose: map[int]bool{2: true}}
	total := 0
	for i := 0; i < 3; i++ {
		retries, err := ec.op()
		if err != nil {
			t.Fatalf("echo op %d: %v", i, err)
		}
		total += retries
	}
	w.close()
	if total != 1 {
		t.Errorf("echo: %d retries, want 1", total)
	}

	if w, err = setupKV(cfg); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	kc := w.clients[1].(*kvClient)
	kc.conn = &lossyConn{Conn: kc.conn, lose: map[int]bool{3: true, 20: true}}
	rec := newRecorder(&on, 64)
	for issued := 0; issued < 64 || len(kc.out) > 0; {
		for ; issued < 64 && len(kc.out) < kc.window; issued++ {
			if err := kc.issue(); err != nil {
				t.Fatal(err)
			}
		}
		kc.complete(rec)
	}
	if rec.failed != 0 || rec.retries != 2 {
		t.Errorf("kv: %d failed, %d retries, want 0 and 2", rec.failed, rec.retries)
	}
	slow := 0
	for _, d := range rec.lat {
		if time.Duration(d) >= opDeadline {
			slow++
		}
	}
	if slow != 2 {
		t.Errorf("kv: %d ops took a deadline or longer, want the 2 retried ones", slow)
	}
}

// TestSpreadMatchesPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 {
		t.Error("a single value has no spread")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.07}
	tight := func(m float64) stat { return newStat([]float64{m, m * 1.01, m * 0.99, m, m}, 1) }
	wide := func(m float64) stat { return newStat([]float64{m * 0.7, m * 0.8, m, m * 1.2, m * 1.3}, 1) }
	for _, c := range []struct {
		def  metricDef
		a, b stat
		want string
	}{
		{lower, tight(100), tight(103), verdictSame},
		{lower, tight(100), tight(110), verdictWorse},
		{lower, tight(100), tight(90), verdictBetter},
		{higher, tight(100), tight(110), verdictBetter},
		{higher, tight(100), tight(90), verdictWorse},
		{lower, tight(100), wide(100), verdictUnresolved},
	} {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.def.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
