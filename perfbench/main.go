// Command perfbench is the repository's benchmark. It runs one
// named workload against the public API of internal/core, internal/deme
// and internal/service, checks every front it receives, and prints one
// JSON object as its last line of output:
//
//	bash perfbench/run.sh --workload solve-seq --seed 1 --seconds 35 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - solve-seq: closed loop, one caller, sequential TSMO on the Sim at
//     N=400, k=20, neighbourhood 200, 100,000 evaluations per solve.
//   - solve-mw: the same instances and budget under the synchronous and
//     asynchronous master-worker variants at P=12 on the Sim.
//   - service-mixed: an in-process durable service on loopback HTTP with
//     two tenants weighted 3:1, fed open-loop from a seeded schedule.
//
// Timings are medians over every sample of a run; each timing's p90 goes
// to the report line, since on a shared host it follows the other guests'
// load more than the program. solve-* time their in-process calls, set-up
// included, by the process's CPU time, which leaves out the time the
// hypervisor gives the vCPUs to other guests (steal_share in the report
// line). The other guests' load also slows the cores themselves, by up to
// a third for minutes at a time; a fixed kernel of the benchmark's own
// (hostKernel), timed after every solve, measures that slowdown, and
// solve-* divide their times by it, so they read as on the quiet reference
// host (host_slowdown and evals_per_s_measured in the report line).
// service-mixed times its requests by the clock, so its latencies rise
// with steal: on a 2-vCPU guest its first_point_ms_p50 went from 27 ms at
// 3% steal to 42 ms at 20%. BENCHMARK.json therefore declares only
// solve-seq and solve-mw; service-mixed runs by hand, and every traced run
// measures the service, tenant and dynamic layers whatever its workload.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate run times the benchmark's own calls into each layer and
// prints the per-layer metrics instead (layers.go). A line before the
// result records the environment and the run's details.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how often a run performs its set-up; setup_s is the
// median.
const setupRepeats = 5

type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

var workloads = map[string]func(context.Context, opts, *result) error{
	"solve-seq":     runSolveWorkload,
	"solve-mw":      runSolveWorkload,
	"service-mixed": runServiceWorkload,
}

// endToEnd are the metrics every untraced run prints, as BENCHMARK.json
// declares them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"evals_per_s", "1/s"},
	{"front_hv", "ratio"},
	{"first_point_ms_p50", "ms"},
	{"result_ms_p50", "ms"},
	{"mutate_ms_p50", "ms"},
	{"ok_frac", "ratio"},
	{"peak_heap_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's outcome.
type result struct {
	attempted, failed int
	failures          []string
	invalid           []string
	metrics           map[string]metric
	setups            []float64
	report            map[string]any
	// stopHeap ends the heap sampling startMeasuring began.
	stopHeap func() []float64
	// cpuStat is /proc/stat's steal and total ticks when measuring began.
	cpuStat [2]float64
}

// startMeasuring marks the end of set-up: the set-up's garbage is
// collected and heap sampling starts, so peak_heap_mb describes the
// measured work.
func (r *result) startMeasuring() {
	runtime.GC()
	r.stopHeap = sampleHeap()
	r.cpuStat = readCPUStat()
}

// readCPUStat returns the steal and total ticks of all CPUs from
// /proc/stat, zeros where it cannot be read.
func readCPUStat() [2]float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st [2]float64
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return [2]float64{}
		}
		if i == 7 {
			st[0] = x
		}
		st[1] += x
	}
	return st
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, report: map[string]any{}}
}

// fail counts one failed operation and keeps the first messages.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// putPercentiles records name_pNN for each p, and marks the run invalid
// when a percentile lacks the samples beyond it that the rule requires.
func (r *result) putPercentiles(name string, xs []float64, unit string, ps ...float64) {
	for _, p := range ps {
		v, ok := percentile(xs, p)
		key := fmt.Sprintf("%s_p%02.0f", name, p*100)
		if !ok {
			r.invalid = append(r.invalid, fmt.Sprintf("%s: %d samples leave fewer than %d beyond p%.0f", key, len(xs), minBeyond, p*100))
		}
		r.put(key, v, unit)
		r.report[key+"_samples"] = len(xs)
	}
}

// reportTail records a timing's p90 in the report line. The p90 follows
// how busy the shared host was more than the medians do, so it informs
// but is not one of the gated metrics; the run is still invalid when it
// lacks the samples the percentile rule asks for.
func (r *result) reportTail(name string, xs []float64) {
	v, ok := percentile(xs, 0.9)
	if !ok {
		r.invalid = append(r.invalid, fmt.Sprintf("%s_p90: %d samples leave fewer than %d beyond p90", name, len(xs), minBeyond))
	}
	r.report[name+"_p90"] = v
}

func main() {
	var o opts
	var seed uint64
	var secs, tr int
	flag.StringVar(&o.workload, "workload", "", "workload name: solve-seq, solve-mw or service-mixed")
	flag.Uint64Var(&seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 35, "measured seconds")
	flag.IntVar(&tr, "trace", 0, "1 prints per-layer metrics from a traced run instead of the end-to-end ones")
	flag.Parse()
	o.seed, o.seconds, o.trace = seed, time.Duration(secs)*time.Second, tr == 1
	run, ok := workloads[o.workload]
	if !ok || secs < 1 || (tr != 0 && tr != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload solve-seq|solve-mw|service-mixed, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}

	res := newResult()
	ctx := context.Background()
	var err error
	if o.trace {
		err = runLayers(ctx, o, res)
	} else {
		err = run(ctx, o, res)
	}
	var heap []float64
	if res.stopHeap != nil {
		heap = res.stopHeap()
		// The share of the CPUs' time the hypervisor gave to other
		// guests while the run measured: how busy the host was.
		end := readCPUStat()
		res.report["steal_share"] = ratio(end[0]-res.cpuStat[0], end[1]-res.cpuStat[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.invalid = append(res.invalid, err.Error())
	}
	if !o.trace {
		res.put("setup_s", median(res.setups), "s")
		peak, ok := percentile(heap, 0.99)
		if !ok {
			res.invalid = append(res.invalid, fmt.Sprintf("peak_heap_mb: %d heap samples leave fewer than %d beyond p99", len(heap), minBeyond))
		}
		res.put("peak_heap_mb", peak, "MB")
		okFrac := 0.0
		if res.attempted > 0 {
			okFrac = 1 - float64(res.failed)/float64(res.attempted)
		}
		res.put("ok_frac", okFrac, "ratio")
		res.report["setup_s_samples"] = res.setups
		for _, m := range endToEnd {
			if got, ok := res.metrics[m.name]; !ok || got.Unit != m.unit {
				res.invalid = append(res.invalid, fmt.Sprintf("metric %s missing or not in %s", m.name, m.unit))
			}
		}
	}
	correct := res.failed == 0 && len(res.invalid) == 0 && res.attempted > 0
	res.report["env"] = environment(o)
	res.report["failures"] = res.failures
	res.report["invalid"] = res.invalid
	emit(map[string]any{"report": res.report})
	emit(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if !correct {
		os.Exit(1)
	}
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// sampleHeap samples the live heap (the bytes the last GC marked live)
// every 20 ms until the returned function stops it and returns the
// samples in MB. peak_heap_mb is their 99th percentile: the maximum would
// only tell whether some collection happened to run during a transient
// allocation.
func sampleHeap() func() []float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var samples []float64
	read := func() {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			samples = append(samples, float64(s[0].Value.Uint64())/(1<<20))
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() []float64 {
		close(stop)
		<-done
		read()
		return samples
	}
}

// environment records what a result was measured on.
func environment(o opts) map[string]any {
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the measured source: the git revision in a git checkout,
// otherwise a digest of the module's go.mod and Go sources outside the
// benchmark's own directory.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("source-sha256:%x", h.Sum(nil))
}
