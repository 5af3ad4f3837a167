// Command benchmark is the repository's one yardstick: four workloads
// over real host-loopback UDP and unix sockets (loopback, not a link),
// ten end-to-end metrics, a per-layer budget and a traced run. It drives
// the library through public functions only. README.md in this
// directory says how to run it and why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// runConfig is what a workload's set-up needs to know.
type runConfig struct {
	seed    int64
	sockDir string // where unix sockets live; inside the checkout
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name  string
	why   string
	setup func(cfg runConfig) (*world, error)
}

var workloads = []workloadDef{
	{"echo_small", "64 B ping-pong over the negotiated serialize|>encrypt|>http2 stack: per-message cost of chunnels, core wrappers and syscalls is the whole result",
		func(cfg runConfig) (*world, error) { return setupEcho(cfg, 64) }},
	{"echo_16k", "same stack, 16 KiB payloads: per-byte AES-GCM and copies, ~14 frames per message; moves opposite to echo_small when a header-path win adds a copy",
		func(cfg runConfig) (*world, error) { return setupEcho(cfg, 16<<10) }},
	{"kv_ycsb_a", "paper Fig. 5 on real sockets: 3-shard KV, YCSB-A zipfian, 16 requests outstanding per connection, one client-push and one steered; the pipelined small-send case",
		setupKV},
	{"connect_churn", "paper Fig. 3/4 path: dial, negotiate with discovery, splice to unix, 3 echoes, close; negotiation and teardown do the work, the datapath almost none",
		setupChurn},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// timing splits a run of the given length into the segments and the
// warm-up that precedes each: a tenth of its segment.
func timing(seconds float64) (warm, seg time.Duration) {
	seg = time.Duration(seconds * float64(time.Second) / segments)
	return seg / 10, seg
}

// runEndToEnd measures one workload with all tracing off.
func runEndToEnd(w workloadDef, cfg runConfig, seconds float64) (runResult, error) {
	warm, seg := timing(seconds)
	defer watchdog(w.name, maxSegments*(warm+seg)+60*time.Second)()
	return measure(w, cfg, warm, seg)
}

// contractLine is the last line of standard output in a driver run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "schema" {
		return printSchema(stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload and print the driver's JSON line (default: the whole suite)")
		seed     = fs.Int64("seed", 1, "drives payload bytes and the YCSB generators")
		seconds  = fs.Float64("seconds", runSeconds, "measured time per workload: 5 segments of a fifth each, each set up afresh and warmed up for a tenth of its length")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer and trace.* metrics")
		layers   = fs.Bool("layers", false, "run only the per-layer pass")
		aa       = fs.Bool("aa", false, "run the suite twice and fail on any end-to-end row that is worse or unresolved")
		out      = fs.String("out", "", "suite: write the result file here (default .bench_build/result-<seed>.json)")
		result   = fs.String("result", "", "with -workload and -trace 0: also write the run's full result (per-segment values) here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	// The load shape is fixed so runs on different boxes compare.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	sockDir, err := os.MkdirTemp(buildDir(), "sock")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(sockDir)
	cfg := runConfig{seed: *seed, sockDir: sockDir}

	switch {
	case *layers:
		err = printLayers(stdout)
	case *workload != "":
		err = runContract(*workload, cfg, *seconds, *trace == 1, *result, stdout, stderr)
	case *aa:
		err = runAA(cfg, *seconds, stdout, stderr)
	default:
		err = runSuite(cfg, *seconds, *out, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// buildRoot is the benchmark's scratch directory inside the checkout
// (the same one the driver points build output at). Relative, so unix
// socket paths under it stay inside sun_path's 108 bytes. Tests point it
// at their own temporary directory.
var buildRoot = ".bench_build"

func buildDir() string {
	_ = os.MkdirAll(buildRoot, 0o755) // the caller's next step reports the failure
	return buildRoot
}

// runContract is one driver run: one workload, one JSON line.
func runContract(name string, cfg runConfig, seconds float64, traced bool, resultPath string, stdout, stderr io.Writer) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	line := contractLine{Metrics: map[string]contractMetric{}}
	var res runResult
	var err error
	if !traced {
		if res, err = runEndToEnd(w, cfg, seconds); err != nil {
			return err
		}
		printRun(stderr, res)
		if resultPath != "" {
			data, err := json.Marshal(res)
			if err == nil {
				err = os.WriteFile(resultPath, data, 0o644)
			}
			if err != nil {
				return err
			}
		}
		for _, m := range endToEnd {
			line.Metrics[m.Name] = contractMetric{res.Metrics[m.Name].Median, m.Unit}
		}
	} else {
		var values map[string]float64
		if values, res, err = runTraced(w, cfg, seconds); err != nil {
			return err
		}
		for _, m := range perLayer() {
			line.Metrics[m.Name] = contractMetric{values[m.Name], m.Unit}
			fmt.Fprintf(stderr, "%-48s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
		}
	}
	// Every reply was verified byte for byte. Correct says none was
	// wrong; ops that missed the deadline or met an error are late, not
	// incorrect, and are in Failed, not hidden.
	line.Attempted, line.Failed = res.Attempted, res.Failed
	line.Correct = res.Wrong == 0 && res.Attempted > res.Failed
	return json.NewEncoder(stdout).Encode(line)
}

func printRun(w io.Writer, res runResult) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d (%d with a wrong reply), %d extra tries, %d segments measured for %d quiet ones (host loopback, not a link)\n",
		res.Workload, res.Attempted, res.Failed, res.Wrong, res.Retries, res.Measured, segments)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := res.Metrics[k]
		fmt.Fprintf(w, "  %-20s %14.4f %-6s min %.4f max %.4f n=%d\n",
			k, s.Median, unitOf(k), s.Min, s.Max, s.N)
	}
}
