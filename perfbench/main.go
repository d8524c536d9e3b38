// Command perfbench is the repository benchmark. It runs one named
// workload against the system as a user meets it — adserve's HTTP
// surface over a loopback listener, or the offline partition-then-run
// pipeline — checks every answer, and prints its metrics.
//
//	go run . --workload read-mix --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root (perfbench/run.py does, after
// building it). Scratch state goes under .bench_build/. Human-readable
// lines come first; the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer
// ones. A failed correctness check prints correct=false and exits 1; a
// run that could not measure a metric exits 2 without a result. See
// README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric. scaled is 1 for a time and -1 for a rate
// that are reported at the reference machine speed (calib.go), 0 for a
// value reported as measured.
type metricDef struct {
	name, unit string
	scaled     int
}

// e2eMetrics are reported by every workload with tracing off; their
// meaning per workload is in README.md. BENCHMARK.json lists the same.
// The /run tail is printed but not among them: on write-mix, where the
// epoch publish competes with /run for the CPU, it doubled the
// machine's run-to-run drift and spread by up to a third. Times and
// rates are scaled to the reference machine speed (calib.go). setup_s
// is scaled like partition_s; its unit stays "s", the one the
// benchmark's contract gives it.
var e2eMetrics = []metricDef{
	{"setup_s", "s", 1},
	{"partition_s", "ref-s", 1},
	{"run_p50_ms", "ref-ms", 1},
	{"op_p50_ms", "ref-ms", 1},
	{"op_tail_ms", "ref-ms", 1},
	{"capacity_per_s", "1/ref-s", -1},
	{"sim_cost_geomean", "work", 0},
	{"live_heap_mb", "MB", 0},
}

var algoNames = []string{"CN", "TC", "WCC", "PR", "SSSP"}

// layerMetrics are reported by the traced run. A layer a workload
// does not exercise reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"graph.ingest_ms", "ms", 0},
		{"partitioner.fennel_ms", "ms", 0},
		{"composite.me2h_ms", "ms", 0},
		{"composite.fc", "ratio", 0},
		{"store.create_ms", "ms", 0},
		{"engine.new_cluster_ms", "ms", 0},
		{"partition.vertex_lookup_us", "us", 0},
		{"store.parse_updates_ms", "ms", 0},
		{"store.apply_ms", "ms", 0},
		{"store.wal_bytes_per_mutation", "B", 0},
		{"composite.clone_cow_ms", "ms", 0},
		{"partition.compile_ms", "ms", 0},
		{"composite.owned_fragment_share", "ratio", 0},
		{"composite.new_bytes_per_publish", "B", 0},
		{"replica.tail_ms", "ms", 0},
		{"replica.apply_frames_ms", "ms", 0},
		{"replica.useful_pull_share", "ratio", 0},
		{"replica.visible_ms", "ms", 0},
		{"serve.batches_per_epoch", "ratio", 0},
		{"serve.runs_rejected", "count", 0},
		{"serve.run_failures", "count", 0},
		{"serve.retained_epochs_max", "count", 0},
		{"runtime.gc_cpu_share", "ratio", 0},
		{"runtime.sched_latency_p99_ms", "ms", 0},
		{"loadgen.late_max_ms", "ms", 0},
		{"trace.overhead_share", "ratio", 0},
	}
	for _, a := range algoNames {
		defs = append(defs,
			metricDef{"costmodel.parallel_cost." + a, "work", 0},
			metricDef{"engine.run_ms." + a, "ms", 0},
			metricDef{"engine.supersteps." + a, "count", 0},
			metricDef{"engine.msg_bytes." + a, "B", 0},
			metricDef{"engine.critical_work." + a, "work", 0},
		)
	}
	for _, k := range opNames {
		defs = append(defs,
			metricDef{"serve.http_overhead_ms." + k, "ms", 0},
			metricDef{"runtime.alloc_bytes_per_op." + k, "B", 0},
		)
	}
	return defs
}()

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // per-run scratch directory under .bench_build
}

// report collects one run's metrics, report lines and check failures.
type report struct {
	e2e      map[string]float64
	layer    map[string]float64
	lines    []string
	problems []string
	ops      counts
	scale    float64 // calibration factor for scaled metrics (calib.go)
}

func newReport() *report {
	r := &report{e2e: map[string]float64{}, layer: map[string]float64{}, scale: math.NaN()}
	for _, d := range layerMetrics {
		r.layer[d.name] = 0
	}
	return r
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// failf records a correctness failure: the run's answer was wrong.
func (r *report) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setDist sets prefix's median and tail from d and logs them with the
// conventional named percentile (p99 for reads, p90 otherwise), which
// is reported only with ten samples beyond it.
func (r *report) setDist(prefix string, d *dist, label string, named float64) {
	m, mok := d.median()
	if mok {
		r.e2e[prefix+"_p50_ms"] = m
	}
	pct, v, ok := d.tail()
	if ok {
		r.e2e[prefix+"_tail_ms"] = v
	}
	nv, nok := d.percentile(named)
	r.logf("%-18s n=%d p50=%s tail p%g=%s; p%g=%s", label, d.n(), fmtVal(m, mok), pct, fmtVal(v, ok), named, fmtVal(nv, nok))
}

// setRunP50 reports run_p50_ms as the geometric mean of the
// per-algorithm medians.
func (r *report) setRunP50(a algoDists) {
	v, ok := a.geomeanMedian()
	if ok {
		r.e2e["run_p50_ms"] = v
	} else {
		delete(r.e2e, "run_p50_ms")
	}
	r.logf("%-18s %s (geomean over the five algorithms of each one's median)", "run_p50_ms", fmtVal(v, ok))
}

func fmtVal(v float64, ok bool) string {
	if !ok {
		return "insufficient samples"
	}
	return fmt.Sprintf("%.3f ms", v)
}

var runners = map[string]func(config, *report) error{
	"read-mix":        func(c config, r *report) error { return runServe(c, r, false) },
	"write-mix":       func(c config, r *report) error { return runServe(c, r, true) },
	"partition-batch": runBatch,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: read-mix, write-mix or partition-batch")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := runners[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload read-mix|write-mix|partition-batch --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	os.Exit(mainRun(cfg, run))
}

func mainRun(cfg config, run func(config, *report) error) int {
	base := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(base, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	cfg.scratch = dir

	rep := newReport()
	start := time.Now()
	err = run(cfg, rep)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	fmt.Printf("wall %.1f s, %d ops attempted, %d failed (failed_share %.4f)\n",
		time.Since(start).Seconds(), rep.ops.attempted, rep.ops.failed, rep.ops.failedShare())
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}

	defs, values := e2eMetrics, rep.e2e
	if cfg.trace {
		defs, values = layerMetrics, rep.layer
	}
	out := map[string]any{}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !cfg.trace && d.scaled > 0 {
			v *= rep.scale
		} else if !cfg.trace && d.scaled < 0 {
			v /= rep.scale
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if len(missing) > 0 && len(rep.problems) == 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s: no valid measurement for %s\n", cfg.workload, strings.Join(missing, ", "))
		return 2
	}
	b, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.ops.attempted,
		"failed":    rep.ops.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(b))
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}
