// Command lhbench is the LakeHarbor benchmark: it runs one named workload
// against the system's public entry points for a fixed window, checks every
// answer against the generators' oracles, and prints each metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run measures an untraced window and then a traced one, and the metrics
// are the per-layer metrics (README.md lists both sets and why each
// workload exists).
//
// Usage, from the repository root:
//
//	bash lhbench/run.sh --workload q5-io --seed 1 --seconds 20 --trace 0
//	bash lhbench/run.sh --smoke
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; TestMetricListsMatchBenchmarkJSON keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"query_qps", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p95_ms", "ms", "lower"},
	{"record_accesses_per_query", "count", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the per-module metrics of the traced run. A metric a
// workload does not exercise reads 0 on it (README.md: "applies to").
var perLayer = []metricDef{
	{"core.tasks_per_query", "count", "lower"},
	{"core.busy_ms_per_query", "ms", "lower"},
	{"core.ptrs_per_batch", "count", "higher"},
	{"core.queue_wait_p50_us", "us", "lower"},
	{"core.self_ms_per_query", "ms", "lower"},
	{"dfs.calls_per_query", "count", "lower"},
	{"dfs.keys_per_call", "count", "higher"},
	{"dfs.busy_ms_per_query", "ms", "lower"},
	{"dfs.call_p50_us", "us", "lower"},
	{"dfs.remote_frac", "ratio", "lower"},
	{"dfs.lookups_per_query", "count", "lower"},
	{"tpch.interp_ms_per_query", "ms", "lower"},
	{"claims.parse_ms_per_query", "ms", "lower"},
	{"runtime.alloc_mb_per_query", "MB", "lower"},
	{"runtime.gc_cycles_per_query", "count", "lower"},
	{"httpapi.ingest_handler_p50_us", "us", "lower"},
	{"httpapi.range_handler_p50_us", "us", "lower"},
	{"httpapi.range_read_per_returned", "ratio", "lower"},
	{"store.wal_append_sync_p50_us", "us", "lower"},
	{"store.wal_bytes_per_ingest", "bytes", "lower"},
	{"indexer.entries_per_ingest", "count", "lower"},
	{"script.steps_per_ingest", "count", "lower"},
	{"script.invocations_per_ingest", "count", "lower"},
	{"indexer.build_s", "s", "lower"},
	{"load_s", "s", "lower"},
	{"ingest_p50_ms", "ms", "lower"},
	{"ingest_p95_ms", "ms", "lower"},
	{"fail_frac", "ratio", "lower"},
	{"trace.qps_ratio", "ratio", "higher"},
}

// netMetrics are the RPC layer's metrics. Only claims-net exercises the
// layer, and BENCHMARK.json leaves claims-net out (README.md, "claims-net"),
// so they are printed but are not part of the result line.
var netMetrics = []metricDef{
	{"nodenet.rpcs_per_query", "count", "lower"},
	{"nodenet.bytes_per_query", "bytes", "lower"},
	{"nodenet.rpc_p50_us", "us", "lower"},
	{"nodenet.hedges_per_query", "count", "lower"},
	{"nodenet.rpc_errors", "count", "lower"},
}

// config is what every workload receives.
type config struct {
	seed   int64
	window time.Duration // one measurement window
	warmup time.Duration // unmeasured load before the first window
	trace  bool          // add a traced window and report per-layer metrics
	setups int           // least set-ups timed for setup_s (median reported)
	// setupBudget: set-ups repeat, up to maxSetups, until they have taken
	// this long, so a cheap set-up still reports a steady median.
	setupBudget time.Duration
	dir         string // scratch directory inside the checkout
	steal       *stealSampler
}

// workload is one named input set and traffic mix.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, rep *report) error
}

var workloads = []workload{
	{"q5-io", runQ5IO},
	{"claims-cpu", runClaimsCPU},
	{"serve-mixed", runServeMixed},
	{"claims-net", runClaimsNet},
}

// report accumulates one run's metrics, operation counts, environment, and
// output-check failures.
type report struct {
	mu        sync.Mutex
	values    map[string]float64
	env       map[string]any
	notes     []string
	problems  []string
	attempted int64
	failed    int64
}

func newReport(w string, cfg config) *report {
	return &report{
		values: map[string]float64{},
		env: map[string]any{
			"workload":   w,
			"seed":       cfg.seed,
			"window_s":   cfg.window.Seconds(),
			"trace":      cfg.trace,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc":      runtime.NumCPU(),
			"cpu":        cpuModel(),
			"go":         runtime.Version(),
		},
	}
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
}

func (r *report) setEnv(k string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.env[k] = v
}

// note records an observation printed with the result (not a failure).
func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// wrong records a failed output check; the run then reports correct=false.
// Only the first few are kept.
func (r *report) wrong(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// count adds a window's operations to the run totals.
func (r *report) count(l *opLog) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += l.attempted()
	r.failed += l.failed
}

// op counts one operation outside a measurement window.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
	}
}

// cpuModel reads the processor name for the environment record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish prints every measured value, then returns the result line: the
// end-to-end metrics, or with tracing the per-layer ones. A workload must
// set every end-to-end metric; a per-layer metric it does not exercise
// reads 0.
func (r *report) finish(cfg config) (resultJSON, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted < 1 {
		return resultJSON{}, fmt.Errorf("no operation was attempted")
	}
	r.values["fail_frac"] = float64(r.failed) / float64(r.attempted)
	env, err := json.Marshal(r.env)
	if err != nil {
		return resultJSON{}, err
	}
	fmt.Printf("# env %s\n", env)
	for _, n := range r.notes {
		fmt.Printf("# note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("# WRONG: %s\n", p)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer, netMetrics} {
		for _, d := range defs {
			if v, ok := r.values[d.name]; ok {
				fmt.Printf("%-34s %16.6f %s\n", d.name, v, d.unit)
			}
		}
	}
	out := resultJSON{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !cfg.trace {
			return out, fmt.Errorf("workload set no value for end-to-end metric %s", d.name)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: q5-io | claims-cpu | serve-mixed | claims-net")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 20, "length of one measurement window")
		traced  = flag.Int("trace", 0, "1 = add a traced window and report per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run every workload briefly, untraced and traced, with all output checks")
	)
	flag.Parse()
	if *smoke {
		os.Exit(runSmoke(""))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "lhbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		seed:        *seed,
		window:      time.Duration(*seconds * float64(time.Second)),
		warmup:      time.Second,
		trace:       *traced == 1,
		setups:      3,
		setupBudget: 3 * time.Second,
	}
	res, err := runWorkload(*name, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lhbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lhbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload in a fresh scratch directory under the
// build directory of the checkout and returns its result line.
func runWorkload(name string, cfg config) (resultJSON, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return resultJSON{}, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.dir == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return resultJSON{}, err
		}
		dir, err := os.MkdirTemp(".bench_build", "lhbench-")
		if err != nil {
			return resultJSON{}, err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	cfg.steal = startSteal(50 * time.Millisecond)
	defer cfg.steal.close()
	rep := newReport(name, cfg)
	if err := w.run(context.Background(), cfg, rep); err != nil {
		return resultJSON{}, err
	}
	return rep.finish(cfg)
}

// runSmoke runs each workload for a short window, untraced and traced, with
// every output check, and returns the process exit code. Operation failures
// are reported but do not fail the smoke run; wrong answers and run errors
// do. dir, when set, replaces the per-run scratch directory.
func runSmoke(dir string) int {
	code := 0
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			cfg := config{seed: 7, window: time.Second, warmup: 200 * time.Millisecond, trace: tr, setups: 1, dir: dir}
			res, err := runWorkload(w.name, cfg)
			status := "ok"
			switch {
			case err != nil:
				status, code = "ERROR: "+err.Error(), 1
			case !res.Correct:
				status, code = "WRONG ANSWERS", 1
			}
			fmt.Printf("smoke %-12s trace=%-5v %s\n", w.name, tr, status)
		}
	}
	return code
}
