// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the simulator through the library facade and the core runners,
// and the daemon through its HTTP API, checks every output against bounds
// it computes itself, and prints one JSON result line.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--sessiond BIN] [--work DIR]
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, which also
// repeats the workload untraced to report the tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is what a workload run gets: its inputs' seed, its time budget, and
// the accounting it reports into.
type env struct {
	seed     uint64
	seconds  time.Duration
	traced   bool
	sessiond string // daemon binary (sessiond-mixed only)
	work     string // scratch directory inside the checkout
	rec      *recorder
	res      *result
}

// result is one run's accounting: operations attempted and failed, failed
// checks by name, and the metrics the run reports.
type result struct {
	attempted, failed int
	failures          map[string]int
	metrics           map[string]metric
	info              []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{failures: map[string]int{}, metrics: map[string]metric{}}
}

// decl is a metric BENCHMARK.json declares: its name and unit.
type decl struct{ name, unit string }

// endToEnd and perLayer list the metrics BENCHMARK.json declares, in its
// order; catalog_test.go keeps the two in step. Every untraced run reports
// every end-to-end metric, and every traced run every per-layer metric: a
// layer a workload does not exercise reads 0 (README.md lists which).
// daemonLayer are the per-layer metrics only sessiond-mixed, which
// BENCHMARK.json does not list, reports besides.
var (
	endToEnd = []decl{
		{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"sim_steps_per_s", "1/s"},
		{"latency_p50_ms", "ms"}, {"peak_rss_bytes", "bytes"},
	}
	perLayer = []decl{
		{"engine.busy_s", "s"}, {"engine.utilization", "ratio"}, {"engine.tasks", "count"},
		{"core.runs", "count"}, {"core.steps", "count"}, {"core.batch_lanes", "count"},
		{"core.batch_forks", "count"}, {"core.batch_fallbacks", "count"}, {"core.solo_s", "s"},
		{"trace.certify_s", "s"}, {"mp.self_s", "s"},
		{"sm.self_s", "s"}, {"sm.self_ns_per_step", "ns"}, {"timing.sched_s", "s"},
		{"certify.observe_s", "s"}, {"alg.build_s", "s"}, {"alg.step_s", "s"},
		{"tree.merge_ns", "ns"}, {"tree.knowledge_words_peak", "words"},
		{"runtime.alloc_bytes_per_op", "bytes"}, {"runtime.gc_cycles_per_op", "count"},
		{"trace.overhead_ratio", "ratio"},
	}
	daemonLayer = []decl{
		{"sessiond.overhead_ms_p50", "ms"}, {"wire.encode_us_p50", "us"},
		{"core.encode_summary_us", "us"}, {"core.decode_summary_us", "us"},
		{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.hit_ratio", "ratio"},
		{"diskcache.disk_hits", "count"}, {"sessiond.batch_lanes", "count"},
		{"sessiond.heap_inuse_bytes", "bytes"}, {"diskcache.get_us_p50", "us"},
		{"diskcache.put_us_p50", "us"}, {"journal.append_us_p50", "us"},
	}
)

// set records a declared metric; an undeclared name is a bug here.
func (r *result) set(name string, v float64) {
	for _, ds := range [][]decl{endToEnd, perLayer, daemonLayer} {
		for _, d := range ds {
			if d.name == name {
				r.metrics[name] = metric{v, d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// complete checks that a run reported every metric of its kind: a missing
// end-to-end metric is an error, a missing per-layer one reads 0.
func (r *result) complete(traced bool) error {
	if traced {
		for _, d := range perLayer {
			if _, ok := r.metrics[d.name]; !ok {
				r.metrics[d.name] = metric{0, d.unit}
			}
		}
		return nil
	}
	for _, d := range endToEnd {
		if _, ok := r.metrics[d.name]; !ok {
			return fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
	}
	return nil
}

// op records one attempted operation; a non-nil err counts it as failed
// under the name of the check or call that failed.
func (r *result) op(check string, err error) bool {
	r.attempted++
	return r.fail(check, err)
}

// fail counts an operation already attempted as failed when a later check
// of its output returns an error.
func (r *result) fail(check string, err error) bool {
	if err == nil {
		return true
	}
	r.failed++
	r.failures[check]++
	if r.failures[check] <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", check, err)
	}
	return false
}

// infof adds a line to the human-readable part of the output.
func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	// probe, if not nil, does the workload's set-up in a fresh process
	// (setup_s); sessiond-mixed times daemon starts instead.
	probe func(seed uint64) error
	run   func(e *env) error
}

// workloads are the workloads BENCHMARK.json lists. sessiond-mixed runs
// only when asked for by name: the disk's fsync latency, which its fresh
// solves and journal replays wait on, drifts too far from run to run for
// the bounds BENCHMARK.json sets (README.md gives the figures).
var (
	workloads = []workload{
		{name: "table1-grid", probe: probeTable1, run: runTable1},
		{name: "largen-expander", probe: probeExpander, run: runExpander},
	}
	byHand = []workload{{name: "sessiond-mixed", run: runSessiond}}
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	sessiond := fs.String("sessiond", "", "sessiond binary (sessiond-mixed)")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	probe := fs.Bool("probe", false, "do the workload's set-up and exit (internal)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var w *workload
	all := append(append([]workload(nil), workloads...), byHand...)
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *probe {
		if w.probe == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s has no set-up probe\n", w.name)
			os.Exit(2)
		}
		if err := w.probe(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, sessiond: *sessiond, work: dir,
		rec: newRecorder(*trace == 1), res: newResult(),
	}
	err = w.run(e)
	os.RemoveAll(dir)
	if err == nil {
		err = e.res.complete(e.traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if e.traced {
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := e.rec.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		e.res.infof("spans: %d written to %s", len(e.rec.spans), path)
	}
	os.Exit(report(w.name, e))
}

// report prints the stamp, the human-readable lines and the result line,
// and returns the exit code: non-zero when any operation failed.
func report(name string, e *env) int {
	r := e.res
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	stamp, _ := json.Marshal(map[string]any{
		"workload": name, "seed": e.seed, "seconds": e.seconds.Seconds(), "trace": e.traced,
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"cpu": cpuModel(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"attempted": r.attempted, "failed": r.failed,
	})
	fmt.Fprintf(out, "stamp %s\n", stamp)
	for _, l := range r.info {
		fmt.Fprintln(out, l)
	}
	names := make([]string, 0, len(r.failures))
	for k := range r.failures {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "FAILED %s: %d operations\n", k, r.failures[k])
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(out, string(line))
	if r.failed > 0 || r.attempted == 0 {
		return 1
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSS reads VmHWM (peak resident set) of a process, in bytes.
func peakRSS(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// setupRepeats is how many cold set-ups setup_s takes the median of: a
// set-up lasts milliseconds, so one slow process start moves a small
// sample's median.
const setupRepeats = 21

// probeSetup times setupRepeats fresh processes that each do the workload's
// set-up and exit, and returns the median in seconds.
func probeSetup(name string, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "--probe", "--workload", name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// runtimeDelta sums allocation and GC cycles over stretches of work
// between start and stop.
type runtimeDelta struct {
	ms         runtime.MemStats
	alloc, gcs uint64
	running    bool
}

func (d *runtimeDelta) start() {
	runtime.ReadMemStats(&d.ms)
	d.running = true
}

func (d *runtimeDelta) stop() {
	if !d.running {
		return
	}
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	d.alloc += now.TotalAlloc - d.ms.TotalAlloc
	d.gcs += uint64(now.NumGC - d.ms.NumGC)
	d.running = false
}

// report stops the stretch in progress and sets
// runtime.alloc_bytes_per_op and runtime.gc_cycles_per_op over ops.
func (d *runtimeDelta) report(r *result, ops int) {
	d.stop()
	n := float64(max(ops, 1))
	r.set("runtime.alloc_bytes_per_op", float64(d.alloc)/n)
	r.set("runtime.gc_cycles_per_op", float64(d.gcs)/n)
}

// percentile is the nearest-rank percentile of xs (q in [0,1]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of xs (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencyLines reports the latency percentiles whose tail holds at least
// ten samples, as information lines.
func latencyLines(r *result, ms []float64) {
	for _, q := range []float64{0.9, 0.99} {
		if beyond := float64(len(ms)) * (1 - q); beyond >= 10 {
			r.infof("latency p%g: %.4f ms (%d samples)", q*100, percentile(ms, q), len(ms))
		}
	}
}

// untilDeadline calls round with increasing indices until the budget is
// spent, at least once, and returns the time taken.
func untilDeadline(budget time.Duration, round func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < budget; i++ {
		round(i)
	}
	return time.Since(t0)
}
