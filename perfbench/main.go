// Command perfbench is the repository's benchmark: one process drives
// one workload against the production code and prints its metrics.
//
//	perfbench --workload read-mix --seed 1 --seconds 10 --trace 0
//
// Workloads: read-mix (point, batch and k-NN queries against one leader
// over loopback TCP), ingest (landmark reports into an SGD leader beside
// point reads from its follower) and gossip (the landmark-free DMFSGD
// peer exchange over simnet). With --trace 0 the last line of standard
// output is a JSON object carrying the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run instead,
// and the spans are written under --trace-dir. Earlier lines are a
// human-readable report: the environment, per-call percentiles with
// their sample counts, and every check's outcome.
//
// Every answer is checked against the benchmark's own reference; a
// wrong answer makes the run exit with status 1 after printing its
// result, and a run that cannot complete exits with status 2 without
// one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct {
	Name, Unit string
}

// e2eMetrics are reported by every workload with --trace 0. What the
// generic names measure on each workload is documented in README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"rss_peak_mb", "MB"},
}

// layerMetrics are reported by every workload with --trace 1; a layer
// the workload leaves idle reads 0.
var layerMetrics = []metricDef{
	{"fail_frac", "ratio"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.req_bytes", "bytes"},
	{"wire.reply_bytes", "bytes"},
	{"transport.call_p50_us", "us"},
	{"transport.call_p99_us", "us"},
	{"transport.self_us", "us"},
	{"transport.client_writes_per_op", "count"},
	{"transport.server_writes_per_op", "count"},
	{"transport.server_reads_per_op", "count"},
	{"transport.frames_per_flush", "count"},
	{"transport.dials_per_op", "count"},
	{"server.handle_us.query_dist", "us"},
	{"server.handle_us.query_batch", "us"},
	{"server.handle_us.query_knn", "us"},
	{"server.handle_us.report", "us"},
	{"server.coalesced_frac", "ratio"},
	{"query.pair_ns", "ns"},
	{"query.batch_us", "us"},
	{"query.knn_us", "us"},
	{"query.dir_get_ns", "ns"},
	{"query.knn_index_hit_frac", "ratio"},
	{"query.knn_index_builds", "count"},
	{"lifecycle.revision_us", "us"},
	{"lifecycle.revisions_per_s", "1/s"},
	{"lifecycle.deltas_per_revision", "count"},
	{"lifecycle.queue_depth_max", "count"},
	{"lifecycle.fits", "count"},
	{"solve.peer_step_ns", "ns"},
	{"solve.median_rel_err", "ratio"},
	{"solve.p90_rel_err", "ratio"},
	{"repl.bytes_per_revision", "bytes"},
	{"repl.frames_per_revision", "count"},
	{"repl.lag_revs_max", "count"},
	{"repl.reconnects", "count"},
	{"peer.round_p50_us", "us"},
	{"peer.round_p99_us", "us"},
	{"peer.fail_frac", "ratio"},
	{"peer.neighbor_churn", "count"},
	{"simnet.dial_us", "us"},
	{"simnet.ping_us", "us"},
	{"rendezvous.announces_per_round", "count"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

// window is the timed part of a run.
func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// report accumulates a run's outcome.
type report struct {
	attempted, failed int64
	checkErrs         []error
	e2e               map[string]float64
	layers            map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// logf prints one line of the human-readable report.
func (r *report) logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// wrong records a failed answer check; the run is then incorrect.
func (r *report) wrong(err error) {
	if len(r.checkErrs) < 20 {
		r.logf("CHECK FAILED: %v", err)
	}
	r.checkErrs = append(r.checkErrs, err)
}

// ops records attempted and failed operations.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

var workloads = map[string]func(runConfig, *report) error{
	"read-mix": runReadMix,
	"ingest":   runIngest,
	"gossip":   runGossip,
}

// workloadProcs sets GOMAXPROCS for a workload whose load is one
// goroutine at a time. Gossip drives every round from one goroutine,
// and each exchange hands off between the caller's goroutine and its
// partner's serving goroutine. With one P those hand-offs stay on one
// thread, so the figures do not track how fast a shared host wakes
// the second CPU.
var workloadProcs = map[string]int{"gossip": 1}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: read-mix, ingest or gossip")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: --workload %q --seconds %v --trace %d\n", cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if procs, ok := workloadProcs[cfg.workload]; ok {
		runtime.GOMAXPROCS(procs)
	}

	printEnv(cfg)
	r := newReport()
	if err := run(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(2)
	}
	defs, values, complete := e2eMetrics, r.e2e, true
	if cfg.trace {
		complete = false
		defs, values = layerMetrics, r.layers
		if r.attempted > 0 {
			values["fail_frac"] = float64(r.failed) / float64(r.attempted)
		}
	}
	line, err := resultLine(defs, values, r, complete)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(line)
	if len(r.checkErrs) > 0 {
		os.Exit(1)
	}
}

// resultLine renders the final JSON line. With complete set every
// metric must have been measured (the end-to-end set); otherwise an
// unmeasured one reads 0 (per-layer metrics of layers a workload leaves
// idle).
func resultLine(defs []metricDef, values map[string]float64, r *report, complete bool) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(r.checkErrs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && complete {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operations attempted")
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := out.Metrics[name]; !ok {
			return "", fmt.Errorf("metric %s is not declared", name)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return string(b), nil
}
