// Command perfbench is the repository's end-to-end benchmark. It drives
// the RBCAer reproduction from seeded, generated inputs through one of
// three workloads and prints every metric by name with its unit, a
// verdict on the output checks, and, as its last line, one JSON result.
//
//	perfbench --workload sched-eval --seed 1 --seconds 20 --trace 0
//
// The workloads, metrics and trace format are described in README.md.
// The benchmark times the program from outside, around calls into its
// public functions, and reads the obs.Registry counters the program
// already exports; it adds no instrumentation inside the program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's figures and output checks. End-to-end
// metrics come from untraced runs; per-layer metrics from traced runs.
type report struct {
	e2e       map[string]metric
	layer     map[string]metric
	checks    []check
	attempted int64
	failed    int64
	notes     []string
}

// check is one output-correctness verdict.
type check struct {
	name string
	err  error
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// check records a named verdict; a nil error passes.
func (r *report) check(name string, err error) { r.checks = append(r.checks, check{name, err}) }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

// e2eMetrics and layerMetrics are the names every run reports, in
// BENCHMARK.json order, with their units. A workload that does not
// exercise a layer reports that layer's figures as 0.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"slot_p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"serving_ratio", "ratio"},
	{"access_km", "km"},
	{"replication_cost", "ratio"},
}

var layerMetrics = []struct{ name, unit string }{
	{"run.op_p50_ms", "ms"},
	{"run.op_tail_ms", "ms"},
	{"run.slot_p90_ms", "ms"},
	{"core.phase.cluster_ms", "ms"},
	{"core.phase.balance_ms", "ms"},
	{"core.phase.replicate_ms", "ms"},
	{"core.allocs_per_round", "count"},
	{"core.bytes_per_round", "bytes"},
	{"core.moved_over_max_flow", "ratio"},
	{"core.mcmf_paths", "count"},
	{"core.theta_iterations", "count"},
	{"similarity.top_fraction_ms", "ms"},
	{"similarity.distance_matrix_ms", "ms"},
	{"cluster.agglomerative_ms", "ms"},
	{"plan.encode_ms", "ms"},
	{"plan.verify_ms", "ms"},
	{"plan.bytes", "bytes"},
	{"sim.overhead_ms_per_slot", "ms"},
	{"server.cpu_us_per_req", "us"},
	{"http.ingest_service_ms", "ms"},
	{"http.ingest_p99_ms", "ms"},
	{"http.lookup_service_ms", "ms"},
	{"http.lookup_p99_ms", "ms"},
	{"loadgen.conn_wait_ms", "ms"},
	{"loadgen.gen_lag_p99_ms", "ms"},
	{"loadgen.offered_rps", "1/s"},
	{"loadgen.achieved_rps", "1/s"},
	{"server.forwarded_share", "ratio"},
	{"server.lookup.local_share", "ratio"},
	{"server.lookup.redirected_share", "ratio"},
	{"server.lookup.cdn_share", "ratio"},
	{"server.slot.schedule_ms", "ms"},
	{"server.plan.rejects", "count"},
	{"server.slots.coalesced", "count"},
	{"go.gc_pause_ms", "ms"},
	{"wal.appends_per_fsync", "ratio"},
	{"wal.bytes_per_ingest", "bytes"},
	{"wal.append_us_p50", "us"},
	{"wal.checkpoints", "count"},
	{"wal.recover_ms", "ms"},
	{"wal.recovery_records_per_s", "1/s"},
	{"trace.overhead_ms", "ms"},
	{"trace.named_share", "ratio"},
	{"trace.spans", "count"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the span trace (JSONL) and, for ingest-durable,
	// the write-ahead log; it lives inside the checkout.
	outDir string
}

var workloads = map[string]func(cfg config, r *report) error{
	"sched-eval":     runSchedEval,
	"serve-mixed":    runServeMixed,
	"ingest-durable": runIngestDurable,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sched-eval, serve-mixed or ingest-durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_out", "directory for traces and WAL files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	r := newReport()
	if err := fn(cfg, r); err != nil {
		return err
	}
	// Latency tails and the unit operation's median moved 15-100%
	// between runs of the same code on a shared 2-core VM, more than
	// any bound BENCHMARK.json may set, so they are reported but not gated:
	// printed with the end-to-end figures, and in a traced run (from its
	// untraced part) as run.* per-layer figures.
	for _, n := range []string{"op_p50_ms", "op_tail_ms", "slot_p90_ms"} {
		if m, ok := r.e2e[n]; ok {
			r.setLayer("run."+n, m.Unit, m.Value)
		}
	}
	return emit(os.Stdout, cfg, r)
}

// emit prints the human-readable report and the final JSON line.
func emit(w *os.File, cfg config, r *report) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	printMetrics(w, "end-to-end", r.e2e, e2eMetrics)
	if cfg.trace {
		printMetrics(w, "per-layer", r.layer, layerMetrics)
	}
	for _, c := range r.checks {
		if c.err != nil {
			fmt.Fprintf(w, "check %-28s FAIL %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(w, "check %-28s ok\n", c.name)
		}
	}
	verdict := "PASS"
	if !r.correct() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "verdict %s (%d attempted, %d failed)\n", verdict, r.attempted, r.failed)

	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	want, have := e2eMetrics, r.e2e
	if cfg.trace {
		want, have = layerMetrics, r.layer
	}
	for _, m := range want {
		v, ok := have[m.name]
		if !ok {
			v = metric{0, m.unit}
		}
		res.Metrics[m.name] = metric{v.Value, m.unit}
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func printMetrics(w *os.File, title string, ms map[string]metric, gated []struct{ name, unit string }) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s metrics:\n", title)
	in := map[string]bool{}
	for _, g := range gated {
		in[g.name] = true
	}
	for _, n := range names {
		mark := ""
		if !in[n] {
			mark = "  (not gated)"
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s%s\n", n, ms[n].Value, ms[n].Unit, mark)
	}
}

// maxRSSMB is the process's peak resident set size so far in MiB
// (Linux reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcPause is the cumulative stop-the-world pause time so far.
func gcPause() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// workers is the parallelism every workload runs the scheduler with.
func workers() int { return runtime.GOMAXPROCS(0) }

// tracePath is where a traced run writes its spans.
func tracePath(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
