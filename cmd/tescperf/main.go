// Command tescperf is the repository's end-to-end benchmark. It runs one
// named workload against the real tescd stack — node, coordinator and
// typed client, all in this process on loopback TCP listeners — checks
// every output, and prints its metrics.
//
// Usage:
//
//	tescperf --workload correlate-h1-coord --seed 1 --seconds 36 --trace 0
//	tescperf --workload churn-rw --seed 1 --seconds 36 --trace 1 --spans spans.json
//	tescperf --runs 5 --seed 1 --seconds 36          # every workload, 5 seeds each
//
// With --trace 0 a run reports the end-to-end metrics; with --trace 1 a
// separate run replays the same kind of inputs through successively
// lower public entry points (coordinator, node, handler, library,
// library leaves) and reports per-layer metrics. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": 4100, "failed": 0, "metrics": {...}}
//
// With --runs N (or without --workload) the binary re-executes itself
// once per (workload, seed), so each run keeps its own heap and RSS, and
// prints the median and quartiles of every metric. See README.md for
// the workloads, the metrics and the layer→metric map.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the client-observed metrics every workload reports with
// --trace 0. "Primary" and "auxiliary" request are defined per workload
// (see workloads and README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"qps", "1/s"},
	{"aux_p50_ms", "ms"},
	{"rss_mb", "MB"},
}

// perLayer are the --trace 1 metrics. A layer a workload's requests do
// not pass through reads 0 on that workload.
var perLayer = []metricDef{
	// the correlate chain, outside in (medians of per-request self time)
	{"client.request_ms", "ms"},
	{"cluster.proxy_ms", "ms"},
	{"http.roundtrip_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"tesc.correlation_ms", "ms"},
	{"core.problem_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"core.density_ms", "ms"},
	{"stats.kendall_ms", "ms"},
	{"stats.pvalue_ms", "ms"},
	{"core.sampler_bfs", "count"},
	{"core.density_bfs", "count"},
	{"tesc.correlation_allocs", "count"},
	{"tesc.correlation_bytes", "bytes"},
	{"core.problem_allocs", "count"},
	{"core.problem_bytes", "bytes"},
	{"core.density_allocs", "count"},
	{"core.density_bytes", "bytes"},
	// screening
	{"screen.plan_ms", "ms"},
	{"screen.plan_warm_ms", "ms"},
	{"screen.run_ms", "ms"},
	{"screen.run_warm_ms", "ms"},
	{"core.membership_ms", "ms"},
	{"screen.full_tests", "count"},
	{"screen.pruned", "count"},
	{"screen.density_evals", "count"},
	{"screen.bfs_runs", "count"},
	{"screen.memo_hits", "count"},
	// mutation, durability and the index cache
	{"graph.apply_ms", "ms"},
	{"vicinity.repair_ms", "ms"},
	{"vicinity.build_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"wal.fsyncs", "count"},
	{"wal.bytes_per_flip", "bytes"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"cache.index_built", "count"},
	{"cache.index_refreshed", "count"},
	{"cache.read_rebuild_ratio", "fraction"},
	{"monitor.refresh_ms", "ms"},
	{"monitor.nodes_reused", "count"},
	// the load generator and the trace itself
	{"load.late_p99_ms", "ms"},
	{"trace.leaf_residual", "fraction"},
	{"trace.overhead", "fraction"},
}

// workload is one named traffic mix. why is the one-line reason it
// exists; README.md has the long form.
type workload struct {
	name string
	why  string
	run  func(r *run) error
}

var workloads = []workload{
	{"correlate-h1-coord", "sub-ms h=1 correlates through a 1-member coordinator vs direct: the HTTP hops, admission, JSON and proxy dominate", runCorrelateCoord},
	{"screen-k32", "K=32 screening jobs, top-k planner vs exhaustive sweep: per-pair setup, sampling, Kendall and the density memo", runScreen},
	{"churn-rw", "correlates beside fsync=always edge batches and monitor refreshes: WAL, snapshots, index repair and cache", runChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is one workload invocation: its settings, the request accounting
// and the metrics it has measured so far.
type run struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	trace   bool
	// scale shrinks graphs and event counts; the command line always
	// runs at 1, the smoke test far below.
	scale float64
	// tmp is a scratch directory inside the checkout for the durable
	// node's data; removed by the caller.
	tmp string

	attempted int
	failed    int
	metrics   map[string]float64
	spans     *recorder

	mu       sync.Mutex // guards problems and, in fail, failed
	problems []string
}

// count folds a load phase's request accounting into the run.
func (r *run) count(res loadResult) {
	r.attempted += res.attempted
	r.failed += res.failed
}

// fail records a failed output check outside a load phase; it counts as
// a failed request.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
	r.note(fmt.Errorf(format, args...))
}

// note keeps a failed request's error for the diagnostics printed at
// exit (its load phase already counts the request as failed).
func (r *run) note(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// measure runs a workload's load phase twice after set-up: first
// untimed for a tenth of the run, so caches fill, the heap settles and
// lazy set-up finishes before anything is timed, then for d as the
// measurement (timed set). The set-up garbage is collected first, and
// the resident set is sampled through the measurement for rss_mb.
func (r *run) measure(d time.Duration, phase func(d time.Duration, timed bool)) {
	runtime.GC()
	phase(r.seconds/10, false)
	stop := sampleRSS()
	phase(d, true)
	if rss := stop(); !r.trace {
		r.set("rss_mb", rss)
	}
}

// result is the JSON object on a run's last output line.
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

// execute runs one workload and assembles its result.
func execute(w workload, r *run) (result, error) {
	r.metrics = make(map[string]float64)
	if r.ctx == nil {
		r.ctx = context.Background()
	}
	if r.trace {
		r.spans = newRecorder()
	}
	if err := w.run(r); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !r.trace {
			return result{}, fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("%s: no request was attempted", w.name)
	}
	return res, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (correlate-h1-coord | screen-k32 | churn-rw); empty runs every workload, each in a child process")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed generates the same graphs, events, mutations and request seeds")
		seconds = flag.Int("seconds", 36, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
		spans   = flag.String("spans", "", "with --trace 1, write every recorded span to this JSON file")
		runs    = flag.Int("runs", 0, "repeat mode: run each selected workload this many times, with seeds seed, seed+1, ..., each in a child process, and print the median and quartiles of every metric")
	)
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 0 {
		fmt.Fprintln(os.Stderr, "tescperf: --seconds must be >= 1, --trace 0 or 1, --runs >= 0")
		os.Exit(2)
	}
	if *name != "" {
		if _, ok := findWorkload(*name); !ok {
			fmt.Fprintf(os.Stderr, "tescperf: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	if *runs > 0 || *name == "" {
		if err := repeat(*name, *seed, *seconds, *trace, max(*runs, 1), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tescperf:", err)
			os.Exit(1)
		}
		return
	}

	w, _ := findWorkload(*name)
	tmp, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tescperf:", err)
		os.Exit(1)
	}
	r := &run{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, scale: 1, tmp: tmp}
	res, err := execute(w, r)
	_ = os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tescperf:", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "tescperf: check:", p)
	}
	if r.trace {
		// The two residual checks: replayed leaves against the library
		// call, traced front span against the untraced p50.
		for _, k := range []string{"trace.leaf_residual", "trace.overhead"} {
			if v := r.metrics[k]; v > 0.1 || v < -0.1 {
				fmt.Fprintf(os.Stderr, "tescperf: %s: %s = %+.1f%%, outside ±10%%\n", w.name, k, 100*v)
			}
		}
		r.spans.printTable(os.Stdout, w.name)
		if *spans != "" {
			if err := r.spans.writeFile(*spans); err != nil {
				fmt.Fprintln(os.Stderr, "tescperf:", err)
				os.Exit(1)
			}
		}
	}
	printResult(os.Stdout, w.name, res)
}

// scratchDir makes a private scratch directory under .bench_build in
// the working directory (the checkout root), so nothing is written
// outside the checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "tescperf-")
}

// printResult prints one "workload metric value unit" line per metric,
// then the JSON result as the last line.
func printResult(w io.Writer, name string, res result) {
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%s %s %s %s\n", name, k, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, _ := json.Marshal(res) // plain structs and finite floats cannot fail
	fmt.Fprintln(w, string(line))
}

// repeat runs each selected workload n times in child processes (seed,
// seed+1, ...) and prints every metric's median, quartiles and spread.
func repeat(name string, seed uint64, seconds, trace, n int, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	selected := workloads
	if name != "" {
		wl, _ := findWorkload(name)
		selected = []workload{wl}
	}
	fmt.Fprintf(w, "# tescperf repeat: runs=%d seed=%d..%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d cpu=%q\n",
		n, seed, seed+uint64(n)-1, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	bad := false
	for _, wl := range selected {
		values := make(map[string][]float64)
		units := make(map[string]string)
		attempted, failed := 0, 0
		for i := 0; i < n; i++ {
			args := []string{"--workload", wl.name, "--seed", strconv.FormatUint(seed+uint64(i), 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace)}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed+uint64(i), err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed+uint64(i), err)
			}
			attempted += res.Attempted
			failed += res.Failed
			if !res.Correct {
				bad = true
			}
			line := fmt.Sprintf("# %s seed=%d correct=%v", wl.name, seed+uint64(i), res.Correct)
			for _, k := range sortedKeys(res.Metrics) {
				m := res.Metrics[k]
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
				line += fmt.Sprintf(" %s=%.6g", k, m.Value)
			}
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "%s: attempted=%d failed=%d\n", wl.name, attempted, failed)
		for _, k := range sortedKeys(values) {
			q1, q3 := quartiles(values[k])
			fmt.Fprintf(w, "%s %s median=%.6g q1=%.6g q3=%.6g spread=%.1f%% %s\n",
				wl.name, k, median(values[k]), q1, q3, 100*spread(values[k]), units[k])
		}
	}
	if bad {
		return fmt.Errorf("some runs reported incorrect outputs")
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lastResult parses the JSON result on the last non-empty output line.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}

// cpuModel reads the CPU model name for the repeat-mode header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
