// Command perfbench is the repository's checkpoint benchmark. One run
// measures one workload for a fixed wall time, checks every recovered
// byte, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds this
// package and cmd/eccheckd into .bench_build first:
//
//	python3 perfbench/run.py --workload dense-save --seed 1 --seconds 25 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - dense-save: SaveAsync+Wait rounds over the memory transport with every
//     buffer window dirtied between rounds (BenchmarkFunctionalSave's shape).
//   - recover: decode-workflow Load over loopback TCP after m failures, with
//     seeded re-saves between loads so stale bytes cannot pass.
//   - moe-sparse: SaveIncremental of a skewed MoE state followed by
//     LoadPartial of the hot ranks.
//   - daemon: two HTTP clients driving a real eccheckd, 3 saves per load.
//
// --trace 0 prints the end-to-end metrics (see endToEnd). --trace 1 runs
// the workload twice, once through the public API and once through a
// stack assembled with span-recording decorators, and prints the
// per-layer metrics (see perLayer); it also writes the spans as Chrome
// trace_event JSON and a per-layer self-time table under
// .bench_build/perfbench/.
//
// The package is its own module, so the repository's go test ./... skips
// it; its smoke test runs every workload at a tiny size and checks the
// printed metric names against BENCHMARK.json:
//
//	cd perfbench && go test .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are one run's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // trace files
	eccheckd string // daemon binary
	tiny     bool   // smoke-test sizes; set only by the smoke test
}

// runFunc executes one workload and fills the run.
type runFunc func(o options, r *run) error

var workloads = map[string]runFunc{
	"dense-save": runDenseSave,
	"recover":    runRecover,
	"moe-sparse": runMoESparse,
	"daemon":     runDaemon,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: dense-save, recover, moe-sparse or daemon")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (inputs are a function of it)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured wall time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for trace output")
	flag.StringVar(&o.eccheckd, "eccheckd", filepath.Join(".bench_build", "bin", "eccheckd"), "eccheckd binary (daemon workload)")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, info, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, res, info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its result line and context.
func execute(o options) (*result, map[string]any, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("-seconds must be positive")
	}
	r := newRun(o)
	if err := fn(o, r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	decls := endToEnd
	if o.trace {
		decls = perLayer
	}
	res, err := r.result(decls)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	return res, r.context(), nil
}

// metricDecl declares one printed metric. The names and units mirror
// BENCHMARK.json; the smoke test keeps the two in step.
type metricDecl struct{ name, unit string }

// endToEnd are printed by --trace 0 runs. Every workload reports every
// one; the per-workload meaning of each is in BENCHMARK.json's workload
// reasons and in the workload files.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"save_stall_ms_p50", "ms"},
	{"save_commit_ms_p50", "ms"},
	{"save_commit_ms_p90", "ms"},
	{"save_gb_s", "GB/s"},
	{"saves_per_s", "1/s"},
	{"load_ms_p50", "ms"},
	{"load_ms_p90", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"peak_heap_mb", "MB"},
}

// perLayer are printed by --trace 1 runs. A layer a workload does not
// reach from the benchmark's process reports 0.
var perLayer = []metricDecl{
	{"core.save.offload_ms", "ms"},
	{"core.save.serialize_ms", "ms"},
	{"core.save.encode_ms", "ms"},
	{"core.save.xor_ms", "ms"},
	{"core.save.stage_ms", "ms"},
	{"core.save.p2p_ms", "ms"},
	{"core.save.barrier_ms", "ms"},
	{"core.save.straggle_ms", "ms"},
	{"core.save.promote_ms", "ms"},
	{"core.save.straggler_lag_ms", "ms"},
	{"core.load.scan_ms", "ms"},
	{"core.load.fetch_ms", "ms"},
	{"core.load.rebuild_ms", "ms"},
	{"core.load.smallsync_ms", "ms"},
	{"core.load.redistribute_ms", "ms"},
	{"core.load.fetched_bytes_per_payload_byte", "ratio"},
	{"core.incremental.changed_buffer_frac", "ratio"},
	{"core.self_ms", "ms"},
	{"transport.send_bytes_per_payload_byte", "ratio"},
	{"transport.sends_per_op", "count"},
	{"transport.errors_per_op", "count"},
	{"transport.send_busy_ms", "ms"},
	{"transport.recv_wait_ms", "ms"},
	{"transport.self_ms", "ms"},
	{"cluster.store_bytes_per_payload_byte", "ratio"},
	{"cluster.stores_per_op", "count"},
	{"cluster.store_busy_ms", "ms"},
	{"cluster.load_busy_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"bufpool.hit_ratio", "ratio"},
	{"bufpool.discards_per_op", "count"},
	{"bufpool.self_ms", "ms"},
	{"erasure.encode_gb_s", "GB/s"},
	{"erasure.reconstruct_gb_s", "GB/s"},
	{"erasure.delta_parity_gb_s", "GB/s"},
	{"erasure.self_ms", "ms"},
	{"ecpool.xor_reduce_gb_s", "GB/s"},
	{"ecpool.allocs_per_call", "count"},
	{"ecpool.self_ms", "ms"},
	{"daemon.slot_wait_ms_p50", "ms"},
	{"daemon.server_round_ms_p50", "ms"},
	{"daemon.http_overhead_ms_p50", "ms"},
	{"daemon.response_kb", "KB"},
	{"daemon.self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans_per_op", "count"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one workload execution: op counts, named values, the
// sample count behind each percentile, and free-form context.
type run struct {
	opts      options
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	samples   map[string]int
	info      map[string]any
}

func newRun(o options) *run {
	return &run{
		opts:    o,
		values:  make(map[string]float64),
		samples: make(map[string]int),
		info:    make(map[string]any),
	}
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// setDist records a distribution's percentiles under prefix_p50/_p90 and
// the sample count behind them.
func (r *run) setDist(prefix string, s samples, quantiles ...int) {
	for _, q := range quantiles {
		r.set(fmt.Sprintf("%s_p%d", prefix, q), s.quantile(float64(q)/100))
	}
	r.samples[prefix] = len(s)
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failed operation or check that was already attempted.
func (r *run) fail(err error) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, err.Error())
	}
}

// check counts one byte-exactness or invariant check.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(fmt.Errorf(format, args...))
	}
}

// result assembles the printed line, requiring exactly the declared set.
func (r *run) result(decls []metricDecl) (*result, error) {
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(decls)),
	}
	for _, d := range decls {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// context is the line printed before the result: what produced it.
func (r *run) context() map[string]any {
	ctx := map[string]any{
		"workload":   r.opts.workload,
		"seed":       r.opts.seed,
		"seconds":    r.opts.seconds,
		"trace":      r.opts.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"samples":    r.samples,
		"failures":   r.problems,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	keys := make([]string, 0, len(r.info))
	for k := range r.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ctx[k] = r.info[k]
	}
	return ctx
}

// emit prints the context line, then the result line last.
func emit(w io.Writer, res *result, info map[string]any) error {
	ctx, err := json.Marshal(map[string]any{"perfbench": info})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", ctx, line)
	return err
}
