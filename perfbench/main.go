// Command perfbench is the repository's wall-clock benchmark. It runs one
// seeded workload against the sunder engine or server for a fixed time,
// checks every operation's output against a functional-simulator
// reference, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as one JSON object on its last line.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// mirror BENCHMARK.json at the repository root (a test keeps them equal).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"compile_ms", "ms"},
	{"scan_mbps", "MB/s"},
	{"stream_mbps", "MB/s"},
	{"parallel_mbps", "MB/s"},
	{"req_p50_ms", "ms"},
	{"req_p95_ms", "ms"},
	{"allocs_per_mb", "count/MB"},
	{"alloc_mb_per_mb", "MB/MB"},
	{"heap_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"regex.compile_s", "s"},
	{"transform.to_rate_s", "s"},
	{"mapping.place_s", "s"},
	{"core.configure_s", "s"},
	{"dfa.plan_s", "s"},
	{"prefilter.extract_s", "s"},
	{"transform.device_states", "count"},
	{"mapping.pus", "count"},
	{"dfa.step_s", "s"},
	{"sunder.emit_s", "s"},
	{"dfa.states", "count"},
	{"dfa.hit_ratio", "share"},
	{"dfa.evictions", "count"},
	{"dfa.fallbacks", "count"},
	{"prefilter.find_s", "s"},
	{"prefilter.windows", "count"},
	{"prefilter.skip_ratio", "share"},
	{"prefilter.useful_window_ratio", "share"},
	{"sched.window_s", "s"},
	{"sched.us_per_window", "us"},
	{"funcsim.to_units_s", "s"},
	{"core.run_s", "s"},
	{"core.ns_per_cycle", "ns"},
	{"core.kernel_cycles", "count"},
	{"core.stall_cycles", "count"},
	{"core.flushes", "count"},
	{"core.report_cycles", "count"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p99_ms", "ms"},
	{"server.pool_wait_p99_ms", "ms"},
	{"server.sheds", "count"},
	{"server.compile_p50_ms", "ms"},
	{"server.pool_wait_span_ms", "ms"},
	{"server.scan_span_ms", "ms"},
	{"server.outside_handler_p50_ms", "ms"},
	{"sunder.cache_hit_ratio", "share"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"gc.cpu_share", "share"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"check.order_divergent_ops", "count"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// nproc caps scanning goroutines, GOMAXPROCS and HTTP connections.
	nproc int
	// spans is where a traced run writes its spans.
	spans string
}

// outcome is what a workload run reports: every metric it measured, the
// operations it attempted and how many failed (errored, were shed, timed
// out, or differed from the reference).
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"dense-reports":   func(c runConfig) (*outcome, error) { return runEngine(denseReports, c) },
	"literal-windows": func(c runConfig) (*outcome, error) { return runEngine(literalWindows, c) },
	"serve-nids":      runServe,
}

func main() {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: dense-reports, literal-windows or serve-nids")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload dense-reports|literal-windows|serve-nids, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.nproc)
	cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d go=%s\n",
		cfg.workload, cfg.seed, seconds, trace, cfg.nproc, runtime.Version())

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Printf("# error_rate=%g (%d of %d operations failed)\n", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
