// Command perfbench is the repository benchmark. It runs one workload
// from a seed, checks every job's encoded report byte for byte against
// a reference computed another way during set-up, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced job) as the last line of its output:
//
//	perfbench -workload scale-mapped -seed 1 -seconds 10 -trace 0
//
// Workloads (see BENCHMARK.json for why each exists): scale-mapped,
// validate-text, serve-mixed, distrib-sharded. Generated inputs live
// under the build directory ($CARGO_TARGET_DIR, default .bench_build)
// and are removed when the run ends; traced runs leave their spans
// there as JSON lines.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric the benchmark reports; the lists below are
// the ones BENCHMARK.json declares (a self-test keeps the two equal).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"jobs_per_s", "1/s"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"temporal.relax_ms", "ms"}, {"temporal.build_ms", "ms"}, {"temporal.trips", "count"}, {"temporal.edges", "count"},
	{"core.observe_ms", "ms"}, {"core.rounds", "count"}, {"core.round_ms", "ms"}, {"core.periods_per_round", "count"},
	{"validate.observe_ms", "ms"}, {"validate.stream_trip_ms", "ms"}, {"metrics.observe_ms", "ms"},
	{"classic.observe_ms", "ms"}, {"sweep.distance_observe_ms", "ms"},
	{"linkstream.parse_ms", "ms"}, {"linkstream.sort_ms", "ms"}, {"linkstream.slice_ms", "ms"},
	{"linkstream.open_ms", "ms"}, {"linkstream.events", "count"},
	{"sweep.pass_ms", "ms"}, {"sweep.passes", "count"}, {"sweep.sort_skips", "count"}, {"sweep.periods", "count"},
	{"sweep.builds", "count"}, {"sweep.dedups", "count"}, {"sweep.stream_builds", "count"},
	{"sweep.max_resident", "count"}, {"sweep.arena_handed", "count"}, {"sweep.arena_reuse_ratio", "ratio"},
	{"go.gc_cycles_per_job", "count"},
	{"repro.plan_ms", "ms"}, {"repro.run_ms", "ms"}, {"repro.encode_ms", "ms"}, {"repro.report_bytes", "bytes"},
	{"serve.cold_rtt_ms", "ms"}, {"serve.cold_rtt_p90_ms", "ms"}, {"serve.cold_samples", "count"},
	{"serve.hit_rtt_ms", "ms"}, {"serve.hit_rtt_p90_ms", "ms"}, {"serve.hit_samples", "count"},
	{"serve.overhead_ms", "ms"}, {"serve.decode_ms", "ms"}, {"serve.handler_ms", "ms"},
	{"serve.submitted", "count"}, {"serve.cache_hits", "count"}, {"serve.coalesced", "count"},
	{"serve.run_count", "count"}, {"serve.rejected", "count"}, {"serve.hit_ratio", "ratio"},
	{"serve.cached_results", "count"},
	{"distrib.shard_rtt_ms", "ms"}, {"distrib.worker_busy_ms", "ms"}, {"distrib.coord_self_ms", "ms"},
	{"distrib.shards_dispatched", "count"}, {"distrib.shard_retries", "count"}, {"distrib.local_shard_runs", "count"},
	{"distrib.partial_bytes", "bytes"}, {"distrib.local_job_s", "s"}, {"distrib.overhead_ratio", "ratio"},
	{"trace.job_s", "s"}, {"trace.overhead_s", "s"}, {"trace.spans", "count"},
	{"bench.jobs", "count"}, {"bench.reference_s", "s"},
}

// env is what every workload receives.
type env struct {
	name    string // workload
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // this run's scratch directory for generated inputs
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	problems          []string // why operations failed or checks broke

	setup    time.Duration
	jobTimes []time.Duration // of the measured jobs that computed their report
	done     int             // operations completed, cache hits included
	mem      memDelta        // over the measured phase
	wall     time.Duration   // of the measured phase

	layer  map[string]float64 // per-layer values (traced runs)
	inputs map[string]any     // input sizes, for provenance
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, *env) (*outcome, error){
	"scale-mapped":    scaleMapped,
	"validate-text":   validateText,
	"serve-mixed":     serveMixed,
	"distrib-sharded": distribSharded,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: scale-mapped, validate-text, serve-mixed or distrib-sharded")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 adds a traced job and prints the per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(build, "run-"+*name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// Every run must end well inside three minutes; a stuck job fails
	// the run instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	e := &env{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir}
	out, err := wl(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}

	values, defs := out.layer, perLayer
	if !e.trace {
		if len(out.jobTimes) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: no job completed\n", *name)
			return 1
		}
		done := float64(out.done)
		values = map[string]float64{
			"setup_s":          out.setup.Seconds(),
			"job_s":            percentile(out.jobTimes, 50).Seconds(),
			"jobs_per_s":       done / out.wall.Seconds(),
			"alloc_mb_per_job": float64(out.mem.alloc) / done / 1e6,
			"peak_rss_mb":      peakRSSMB(),
		}
		defs = endToEnd
	}
	metrics := map[string]any{}
	for _, m := range defs {
		metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	prov, _ := json.Marshal(map[string]any{
		"provenance": map[string]any{
			"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
			"inputs": out.inputs, "jobs": len(out.jobTimes), "operations": out.done, "measured_s": out.wall.Seconds(),
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "cpu": cpuModel(),
		},
	})
	fmt.Println(string(prov))
	res, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(res))
	return 0
}

// setUps is how many times a run sets its workload up; setup_s is the
// median.
const setUps = 3

// setUp runs prepare setUps times and records the median duration.
// Each call rebuilds the whole set-up, releasing what the previous call
// started; the last call's state is the one the run uses.
func setUp(out *outcome, prepare func() error) error {
	var times []time.Duration
	for i := 0; i < setUps; i++ {
		start := time.Now()
		if err := prepare(); err != nil {
			return err
		}
		times = append(times, time.Since(start))
	}
	out.setup = percentile(times, 50)
	return nil
}

// percentile is the nearest-rank percentile of xs: the smallest sample
// with at least p percent of the samples at or below it. It returns 0
// for no samples.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(float64(len(s)) * p / 100))
	return s[min(max(rank, 1), len(s))-1]
}

// memDelta is the Go heap activity over a phase.
type memDelta struct {
	alloc uint64 // bytes allocated
	gc    uint32 // collections
}

// measureMem runs fn and reports the heap bytes allocated and the
// collections run meanwhile.
func measureMem(fn func()) memDelta {
	var before, after runtime.MemStats
	// Collect first, so the phase does not pay for the garbage set-up
	// left behind.
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return memDelta{alloc: after.TotalAlloc - before.TotalAlloc, gc: after.NumGC - before.NumGC}
}

// peakRSSMB is this process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// tracePath is where a traced run writes its spans.
func tracePath(e *env) string {
	return filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("trace-%s-seed%d.jsonl", e.name, e.seed))
}
