package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// metricDef mirrors one metric entry of BENCHMARK.json; a test keeps the
// two in step. Bound is a share of the baseline median (end-to-end
// metrics only).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports with tracing off. An
// operation is one round trip, one KV request or one connection
// lifecycle. fail_ratio and conn_setup_* belong to this family too but
// are zero on some workloads, which the driver's end-to-end list does
// not allow, so they are listed with the per-layer metrics.
//
// The bounds are what this kind of box (2 cores, shared host) can
// resolve: every time metric spreads by up to 21 % over ten runs of one
// commit and moves by up to 15 % between two such sets when the box
// changes pace (README, "Seed numbers"), so each carries the widest
// bound the driver allows. op_p99_us could not meet 10 %, so per
// ISSUE 12 the p95 of the same family stands in for it everywhere; the
// p99 is still in the suite's result file.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// untracedExtras are measured with tracing off like the end-to-end
// metrics, but reported among the per-layer ones (see endToEnd).
var untracedExtras = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "retry_ratio", Unit: "ratio", Better: "lower"},
	{Name: "conn_setup_p50_us", Unit: "us", Better: "lower"},
	{Name: "conn_setup_p99_us", Unit: "us", Better: "lower"},
	{Name: "connect_churn.dead_on_arrival_ratio", Unit: "ratio", Better: "lower"},
}

// layerRows are the per-layer pass's metrics, in the order it runs them.
var layerRows = []metricDef{
	{Name: "transport.pipe.rtt_us_64", Unit: "us", Better: "lower"},
	{Name: "wire.buf_get_release_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_buf", Unit: "count", Better: "lower"},
	{Name: "transport.udp.rtt_us_64", Unit: "us", Better: "lower"},
	{Name: "transport.udp.rtt_us_16k", Unit: "us", Better: "lower"},
	{Name: "transport.udp.burst32_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.udp.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "transport.udp.datagrams_per_msg_16k", Unit: "count", Better: "lower"},
	{Name: "transport.unix.rtt_us_64", Unit: "us", Better: "lower"},
	{Name: "transport.reactor.rtt_us_64", Unit: "us", Better: "lower"},
	{Name: "transport.reactor.accept_us", Unit: "us", Better: "lower"},
	{Name: "chunnels.serialize.ns_per_msg_64", Unit: "ns", Better: "lower"},
	{Name: "chunnels.serialize.ns_per_msg_16k", Unit: "ns", Better: "lower"},
	{Name: "chunnels.serialize.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "chunnels.crypt.ns_per_msg_64", Unit: "ns", Better: "lower"},
	{Name: "chunnels.crypt.ns_per_msg_16k", Unit: "ns", Better: "lower"},
	{Name: "chunnels.crypt.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "chunnels.framing.ns_per_msg_64", Unit: "ns", Better: "lower"},
	{Name: "chunnels.framing.ns_per_msg_16k", Unit: "ns", Better: "lower"},
	{Name: "chunnels.framing.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "chunnels.framing.frames_per_msg_16k", Unit: "count", Better: "lower"},
	{Name: "chunnels.shard.push_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "chunnels.shard.steer_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "xdp.run_burst_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "kv.store_apply_ns", Unit: "ns", Better: "lower"},
	{Name: "kv.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "core.negotiate.handshake_us", Unit: "us", Better: "lower"},
	{Name: "core.negotiate.allocs_per_handshake", Unit: "count", Better: "lower"},
	{Name: "core.negotiate.wire_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.close_us", Unit: "us", Better: "lower"},
	{Name: "discovery.query_us", Unit: "us", Better: "lower"},
	{Name: "spec.encode_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "chunnels.localfast.splice_us", Unit: "us", Better: "lower"},
	{Name: "core.instrument.ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "telemetry.histogram_record_ns", Unit: "ns", Better: "lower"},
	{Name: "core.coalesce.idle_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "core.coalesce.sustained_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "ycsb.next_ns", Unit: "ns", Better: "lower"},
}

// Trace rows per workload. send.* and recv.* are the self time of a
// layer's send and receive calls on the op's path (client and server
// together); the rows of one workload sum to its traced op.
var (
	echoLayers  = []string{"serialize", "crypt", "framing", "transport"}
	kvLayers    = []string{"kv_codec", "shard", "transport"}
	churnPhases = []string{"dial", "discovery", "hello", "assemble", "first_rtt", "later_rtts", "close"}
)

// traceRowNames lists the self-time rows of one workload, without the
// "trace.<workload>." prefix.
func traceRowNames(workload string) []string {
	var layers []string
	switch workload {
	case "echo_small", "echo_16k":
		layers = echoLayers
	case "kv_ycsb_a":
		layers = kvLayers
	case "connect_churn":
		var rows []string
		for _, p := range churnPhases {
			rows = append(rows, p+"_us")
		}
		return rows
	}
	var rows []string
	for _, dir := range []string{"send", "recv"} {
		for _, l := range layers {
			rows = append(rows, dir+"."+l+"_us")
		}
	}
	return append(rows, "server_app_us", "in_flight_us")
}

// perLayer is every metric a traced run reports: the untraced extras,
// the layer pass, and each workload's trace rows (zero in runs of
// another workload).
func perLayer() []metricDef {
	rows := append([]metricDef(nil), untracedExtras...)
	rows = append(rows, layerRows...)
	for _, w := range workloads {
		for _, r := range traceRowNames(w.name) {
			rows = append(rows, metricDef{Name: traceName(w.name, r), Unit: "us", Better: "lower"})
		}
		rows = append(rows, metricDef{Name: traceName(w.name, "overhead_ratio"), Unit: "ratio", Better: "lower"})
	}
	return rows
}

func traceName(workload, row string) string {
	return fmt.Sprintf("trace.%s.%s", workload, row)
}

// unitOf finds a metric's unit by name.
func unitOf(name string) string {
	for _, m := range slices.Concat(endToEnd, perLayer()) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// runSeconds is the measured length of a driver run; BENCHMARK.json
// records it, and with it the segment length (a fifth) and the warm-up
// (a tenth again).
const runSeconds = 15

// printSchema writes BENCHMARK.json from the definitions above
// (`go run ./benchmark schema > BENCHMARK.json`), so the file the driver
// reads cannot drift from the names the program prints.
func printSchema(stdout, stderr io.Writer) int {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	// metricDef's bound is omitted when zero: present on every end-to-end
	// metric, absent from every per-layer one, as the driver wants.
	schema := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		schema.Workloads = append(schema.Workloads, workload{w.name, w.why})
	}
	enc := json.NewEncoder(stdout)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(schema); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
