// Command perfbench is mobisense's end-to-end and per-layer benchmark.
//
// One invocation measures one workload for a fixed window and prints, as
// the last line of standard output, a JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1):
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// --report N instead runs every workload of BENCHMARK.json (or only
// --workload) N times as child processes, in alternating order, and prints each metric's median, quartiles and range
// against the bounds in BENCHMARK.json. See README.md for the workloads,
// the metrics and the host-noise findings behind the design.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// workloadNames lists the program's workloads in report order.
// BENCHMARK.json lists all but service, which is kept runnable so the
// steadiness report keeps showing why it was dropped (see README.md).
var workloadNames = []string{"paper-grid", "traced-sweep", "service"}

// metricDef is one reported metric: its name and unit, mirrored by
// BENCHMARK.json (the smoke test asserts the two agree).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s_p50", "s"},
	{"runs_per_s", "1/s"},
	{"alloc_mb_per_run", "MB"},
	{"max_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"coverage_mean", "frac"},
	{"connected_frac", "frac"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	{"sim.events_per_run", "count"},
	{"core.messages_per_run", "count"},
	{"cpvf.tick_ms", "ms"},
	{"floor.tick_ms", "ms"},
	{"spatial.neighbors_ns", "ns"},
	{"field.first_hit_ns", "ns"},
	{"core.reachable_us", "us"},
	{"coverage.seed_ms", "ms"},
	{"coverage.update_us", "us"},
	{"coverage.sync_ms", "ms"},
	{"baseline.vor_ms", "ms"},
	{"baseline.minimax_ms", "ms"},
	{"matching.solve_ms", "ms"},
	{"batch.scaling_eff", "frac"},
	{"store.append_us", "us"},
	{"store.record_kb", "KB"},
	{"store.load_ms", "ms"},
	{"traceagg.aggregate_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.records_ms", "ms"},
	{"server.cache_hit_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// options configure one invocation.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	size     size
	// workDir holds the invocation's scratch stores and service data; it
	// is removed when the invocation ends.
	workDir string
	// spanFile, if set, receives the traced run's spans as JSON lines.
	spanFile string
	log      io.Writer
}

// size scales the simulated work; the benchmark uses paperSize, the smoke
// test tinySize.
type size struct {
	N        int
	Duration float64
	// ServiceN, ServiceDuration and ServiceSide (the square field's side,
	// in meters) size the service workload's small runs.
	ServiceN        int
	ServiceDuration float64
	ServiceSide     float64
}

var paperSize = size{N: 240, Duration: 750, ServiceN: 60, ServiceDuration: 120, ServiceSide: 400}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	report := fs.Int("report", 0, "steadiness report: run each workload of BENCHMARK.json (or --workload) this many times as child processes")
	gap := fs.Duration("gap", 0, "report mode: pause between rounds, to spread the runs over time")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *report > 0 {
		var only []string
		if *workload != "" {
			only = []string{*workload}
		}
		if err := steadinessReport(os.Stdout, only, *report, *seed, *seconds, *gap); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opt := options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		size:     paperSize,
		workDir:  work,
		log:      os.Stderr,
	}
	if opt.trace {
		opt.spanFile = fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", *workload, *seed)
	}
	fmt.Println("# env", envStamp(*seed))
	res, err := run(context.Background(), opt)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload, untraced or traced.
func run(ctx context.Context, opt options) (result, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == opt.workload
	}
	if !known {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	if opt.trace {
		return runTraced(ctx, opt)
	}
	var (
		m   measurement
		err error
	)
	switch opt.workload {
	case "paper-grid":
		m, err = runPaperGrid(opt)
	case "traced-sweep":
		m, err = runTracedSweep(ctx, opt)
	case "service":
		m, err = runService(opt)
	}
	if err != nil {
		return result{}, err
	}
	return m.result(), nil
}

// envStamp describes the host and settings a measurement ran under.
func envStamp(seed uint64) string {
	stamp := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       seed,
	}
	b, _ := json.Marshal(stamp) // a map of strings and numbers always encodes
	return string(b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
