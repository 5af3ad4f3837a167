package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envBlock is what a result file says about where it came from.
type envBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	SegmentS   float64 `json:"segment_s"`
	Segments   int     `json:"segments"`
	Network    string  `json:"network"`
	// CalibNS times a fixed pure-CPU loop before and after the run, so
	// results from different boxes can be normalised; a drift of more
	// than 10 % between the two marks the run noisy.
	CalibNS [2]float64 `json:"calib_ns"`
	Noisy   bool       `json:"noisy"`
}

// resultFile is the suite's output and compare's input.
type resultFile struct {
	Env       envBlock           `json:"env"`
	Workloads []runResult        `json:"workloads"`
	Layers    map[string]float64 `json:"layers"`
	Trace     map[string]float64 `json:"trace"`
}

var calibSink uint64

// calibrate reads how fast the box is right now; tests substitute it.
var calibrate = spin

// spin times a fixed xorshift loop (about 10 ms) nine times and returns
// the fastest, in ns. Nine, because a core that has just finished a
// segment can take 60 ms or so to return to the clock it idles at, and
// single readings taken in that stretch read 5-15 % slow. The result
// file's environment block carries a reading from before and after the
// run; measure takes one beside every segment.
func spin() float64 {
	best := math.MaxFloat64
	for rep := 0; rep < 9; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 5_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		best = min(best, float64(time.Since(t0)))
		calibSink += x
	}
	return best
}

// steadyCalib is the median of three readings: single ones stray by
// 5-10 % on a box whose idle cores change their clock.
func steadyCalib() float64 {
	return median([]float64{calibrate(), calibrate(), calibrate()})
}

func newEnv(seed int64, seconds float64) envBlock {
	warm, seg := timing(seconds)
	e := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
		Seed: seed, WarmupS: warm.Seconds(), SegmentS: seg.Seconds(), Segments: segments,
		Network: "host loopback (127.0.0.1 UDP and unix sockets), not a link",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// A driver checkout is not a git repository: the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// endToEndChild measures one workload in a process of its own, exactly
// as the driver does: peak RSS, heap and scheduler state are that
// workload's alone, whatever ran before it in the suite.
func endToEndChild(w workloadDef, cfg runConfig, seconds float64, stderr io.Writer) (runResult, error) {
	var res runResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	path := filepath.Join(cfg.sockDir, w.name+".json")
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0", "-result", path)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s in a child process: %w", w.name, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	return res, json.Unmarshal(data, &res)
}

// runOnce runs every workload in the given order, end to end and then
// traced, and the layer pass once.
func runOnce(cfg runConfig, seconds float64, order []workloadDef, stderr io.Writer) (*resultFile, error) {
	res := &resultFile{Env: newEnv(cfg.seed, seconds), Trace: map[string]float64{}}
	res.Env.CalibNS[0] = steadyCalib()
	for _, w := range order {
		fmt.Fprintf(stderr, "benchmark: %s, end to end\n", w.name)
		r, err := endToEndChild(w, cfg, seconds, stderr)
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, r)
	}
	for _, w := range order {
		fmt.Fprintf(stderr, "benchmark: %s, traced\n", w.name)
		tw, err := setupTraced(w.name, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s traced set-up: %w", w.name, err)
		}
		stop := watchdog(w.name+" traced", time.Duration(seconds*float64(time.Second))+60*time.Second)
		tw.dump = filepath.Join(buildDir(), "spans-"+w.name+".jsonl")
		rows, p50, _ := tracePass(tw, time.Duration(seconds/4*float64(time.Second)))
		stop()
		for k, v := range rows {
			res.Trace[traceName(w.name, k)] = v
		}
		for _, r := range res.Workloads {
			if r.Workload == w.name {
				res.Trace[traceName(w.name, "overhead_ratio")] = p50 / r.Metrics["op_p50_us"].Median
			}
		}
	}
	fmt.Fprintln(stderr, "benchmark: layer pass")
	res.Layers = runLayers(time.Duration(seconds / 75 * float64(time.Second)))
	res.Env.CalibNS[1] = steadyCalib()
	drift := math.Abs(res.Env.CalibNS[1]-res.Env.CalibNS[0]) / res.Env.CalibNS[0]
	res.Env.Noisy = drift > 0.10
	sort.Slice(res.Workloads, func(i, j int) bool { return res.Workloads[i].Workload < res.Workloads[j].Workload })
	return res, nil
}

func (r *resultFile) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (r *resultFile) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "env: nproc %d, GOMAXPROCS %d, kernel %s, %s, commit %s, seed %d\n",
		e.NProc, e.GOMAXPROCS, e.Kernel, e.GoVersion, e.Commit, e.Seed)
	fmt.Fprintf(w, "     %d segments of %.1fs, each set up afresh and warmed up for %.1fs; %s\n", e.Segments, e.SegmentS, e.WarmupS, e.Network)
	fmt.Fprintf(w, "     calib %.0f → %.0f ns, noisy %v\n", e.CalibNS[0], e.CalibNS[1], e.Noisy)
	for _, res := range r.Workloads {
		printRun(w, res)
	}
	for _, m := range layerRows {
		fmt.Fprintf(w, "%-48s %14.3f %s\n", m.Name, r.Layers[m.Name], m.Unit)
	}
	names := make([]string, 0, len(r.Trace))
	for k := range r.Trace {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-48s %14.3f %s\n", k, r.Trace[k], unitOf(k))
	}
}

// runSuite is the whole yardstick in one command: every workload end to
// end, every traced pass, the layer pass, one result file.
func runSuite(cfg runConfig, seconds float64, out string, stdout, stderr io.Writer) error {
	res, err := runOnce(cfg, seconds, workloads, stderr)
	if err != nil {
		return err
	}
	res.print(stdout)
	if out == "" {
		out = filepath.Join(buildDir(), fmt.Sprintf("result-%d.json", cfg.seed))
	}
	fmt.Fprintf(stdout, "result file: %s\n", out)
	return res.write(out)
}

// runAA runs the suite twice on the same commit, the second time with
// the workloads in reverse order, and fails unless every end-to-end row
// agrees within its own bound.
func runAA(cfg runConfig, seconds float64, stdout, stderr io.Writer) error {
	a, err := runOnce(cfg, seconds, workloads, stderr)
	if err != nil {
		return err
	}
	reversed := append([]workloadDef(nil), workloads...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	b, err := runOnce(cfg, seconds, reversed, stderr)
	if err != nil {
		return err
	}
	for i, r := range []*resultFile{a, b} {
		if err := r.write(filepath.Join(buildDir(), fmt.Sprintf("aa-%d.json", i))); err != nil {
			return err
		}
	}
	if bad := compare(stdout, a, b); bad > 0 {
		return fmt.Errorf("A/A: %d end-to-end rows are worse or unresolved", bad)
	}
	return nil
}

// Verdicts of a compared row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// spread is the distance between the first and third quartile of values
// as a share of their median (the exclusive method of Python's
// statistics.quantiles), 0 for fewer than two values.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		lo := int(math.Floor(pos))
		lo = min(max(lo, 0), n-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(0.75)-q(0.25)) / math.Abs(med)
}

// judge compares B's median with A's for one metric. A row whose
// segment-to-segment spread on either side is wider than the bound
// cannot be told apart from noise: unresolved, not same. (setup_s and
// peak_rss_mb have one value per run and so no spread to judge by.)
func judge(def metricDef, a, b stat) (ratio float64, verdict string) {
	if a.Median == 0 {
		return 0, verdictUnresolved
	}
	ratio = b.Median / a.Median
	if max(spread(a.Values), spread(b.Values)) > def.Bound {
		return ratio, verdictUnresolved
	}
	worse := ratio > 1+def.Bound
	better := ratio < 1-def.Bound
	if def.Better == "higher" {
		worse, better = ratio < 1-def.Bound, ratio > 1+def.Bound
	}
	switch {
	case worse:
		return ratio, verdictWorse
	case better:
		return ratio, verdictBetter
	}
	return ratio, verdictSame
}

// compare prints one row per (metric, workload) and returns how many
// end-to-end rows are worse or unresolved.
func compare(w io.Writer, a, b *resultFile) (bad int) {
	if a.Env.Noisy || b.Env.Noisy {
		fmt.Fprintln(w, "note: a run's calibration loop drifted by more than 10 %: treat the rows below as noisy")
	}
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %16s %7s %s\n", "workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
	byName := map[string]runResult{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := ra.Metrics[def.Name], rb.Metrics[def.Name]
			ratio, verdict := judge(def, sa, sb)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %9.4f of %-8.4g %6.0f%% %s\n",
				ra.Workload, def.Name, sa.Median, sb.Median, ratio, sa.Median, def.Bound*100, verdict)
		}
		fa, fb := ra.Metrics["fail_ratio"].Median, rb.Metrics["fail_ratio"].Median
		verdict := verdictSame
		if fb > fa+0.002 {
			verdict = verdictWorse
			bad++
		}
		fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %16s %7s %s\n", ra.Workload, "fail_ratio", fa, fb, "", "+0.002", verdict)
	}
	return bad
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare is `benchmark compare A.json B.json`.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		f, err := loadResult(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		files[i] = f
	}
	if compare(stdout, files[0], files[1]) > 0 {
		return 1
	}
	return 0
}
