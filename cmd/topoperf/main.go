// Command topoperf is gputopo's benchmark. One command runs a named
// workload through the program's public entry points (simulator.Run, the
// scheduling core, and the sharded /v1 server driven through its typed
// client), checks every output against properties of the method, and
// prints the end-to-end metrics as one JSON object on the last line of
// standard output. With -trace 1 it prints the per-layer metrics instead,
// measured by timing, from this package, every call it makes into a
// layer, plus a CPU profile attributed to the repository's packages.
//
//	bash cmd/topoperf/run.sh --workload fleet-1000 --seed 1 --seconds 12 --trace 0
//	bash cmd/topoperf/run.sh --workload serve-sharded --seed 3 --seconds 12 --trace 1
//	bash cmd/topoperf/run.sh -steady -seconds 20
//
// run.sh builds the binary from source under .bench_build/ and passes -out.
// README.md records the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS so a run uses no more threads than the
// two-CPU machines the benchmark is tuned on, whatever the host has.
const maxProcs = 2

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every untraced run prints, on every
// workload. README.md defines each one per workload.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"qos_slowdown", "ratio"},
	{"submit_p50_ms", "ms"},
	{"release_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics every traced run prints. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"topology.build_s", "s"},
	{"profile.generate_s", "s"},
	{"workload.generate_s", "s"},
	{"simulator.run_s", "s"},
	{"simulator.self_s", "s"},
	{"simulator.alloc_mb", "MB"},
	{"simulator.makespan_s", "s"},
	{"simulator.wait_slowdown", "ratio"},
	{"schedcore.schedule_calls", "count"},
	{"schedcore.schedule_busy_s", "s"},
	{"schedcore.schedule_p50_us", "us"},
	{"schedcore.schedule_p99_us", "us"},
	{"schedcore.decisions", "count"},
	{"schedcore.postponements", "count"},
	{"schedcore.gate_skips", "count"},
	{"schedcore.wake_skips", "count"},
	{"schedcore.wake_skip_ratio", "ratio"},
	{"schedcore.preemptions", "count"},
	{"schedcore.evictions", "count"},
	{"schedcore.wait_s", "s"},
	{"schedcore.high_pri_wait_s", "s"},
	{"placecache.hits", "count"},
	{"placecache.misses", "count"},
	{"placecache.hit_ratio", "ratio"},
	{"placecache.evictions", "count"},
	{"serve.read_p50_ms", "ms"},
	{"serve.recover_s", "s"},
	{"serve.late_p50_ms", "ms"},
	{"serve.late_max_ms", "ms"},
	{"eventlog.records", "count"},
	{"eventlog.syncs_per_op", "ratio"},
	{"eventlog.bytes_per_op", "B"},
	{"eventlog.snapshots", "count"},
	{"eventlog.append_p50_us", "us"},
	{"eventlog.sync_p50_us", "us"},
	{"eventlog.replayed_records", "count"},
	{"eventlog.open_s", "s"},
	{"schedcore.self_cpu_s", "s"},
	{"placecache.self_cpu_s", "s"},
	{"core.self_cpu_s", "s"},
	{"fm.self_cpu_s", "s"},
	{"cluster.self_cpu_s", "s"},
	{"topology.self_cpu_s", "s"},
	{"simulator.self_cpu_s", "s"},
	{"domains.self_cpu_s", "s"},
	{"serve.self_cpu_s", "s"},
	{"serveapi.self_cpu_s", "s"},
	{"http.self_cpu_s", "s"},
	{"eventlog.self_cpu_s", "s"},
	{"gc.self_cpu_s", "s"},
	{"trace.overhead", "ratio"},
	{"trace.residual_share", "ratio"},
	{"trace.spans", "count"},
}

// Set-up runs at least minSetupReps times and until minSetupTime has
// passed, at most maxSetupReps times; setup_s is the median.
const (
	minSetupReps = 5
	maxSetupReps = 50
	minSetupTime = 500 * time.Millisecond
)

func moreSetups(n int, spent time.Duration) bool {
	return n < minSetupReps || (n < maxSetupReps && spent < minSetupTime)
}

// runOpts is what every workload receives.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // scratch directory of this run (event logs), removed after
	outDir  string // where spans and profiles of a traced run are kept
	name    string
}

// outcome is what a workload reports: operation counts, the checks that
// failed, and its metric values (end-to-end or per-layer, by run mode).
type outcome struct {
	attempted, failed int
	violations        []string
	metrics           map[string]float64
}

func (o *outcome) violate(format string, args ...any) {
	if len(o.violations) < 50 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload's name to its run; BENCHMARK.json and
// README.md say why each was chosen.
var workloads = map[string]func(runOpts) (*outcome, error){
	"fleet-1000":    fleet1000.run,
	"mixed-preempt": mixedPreempt.run,
	"serve-sharded": serveSharded.run,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 20, "length of the timed phase in seconds (runs finish their last round)")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "topoperf"), "directory for scratch logs, spans and profiles")
		steady  = flag.Bool("steady", false, "steadiness report: run two sets of runs of every workload and compare them")
		bench   = flag.String("bench", "BENCHMARK.json", "-steady: file holding the metric bounds")
	)
	flag.Parse()
	if *steady {
		if err := steadyReport(*bench, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "topoperf:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "topoperf: unknown workload %q (use one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "topoperf: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	dir := filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "topoperf:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Printf("probe: fixed compute loop %.3f ms (machine-speed diagnostic, not a metric)\n", probeMs())
	o, err := w(runOpts{
		seed:    *seed,
		seconds: float64(*seconds),
		trace:   *trace == 1,
		dir:     dir,
		outDir:  filepath.Join(*out, "trace"),
		name:    *name,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "topoperf:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res, err := buildResult(o, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topoperf:", err)
		return 1
	}
	for _, v := range o.violations {
		fmt.Fprintln(os.Stderr, "topoperf: check failed:", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topoperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult assembles the result line, insisting that the workload
// reported exactly the metrics of the run mode.
func buildResult(o *outcome, defs []metricDef) (*result, error) {
	res := &result{
		Correct:   len(o.violations) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("workload did not report %s", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(o.metrics) != len(defs) {
		for k := range o.metrics {
			if _, ok := res.Metrics[k]; !ok {
				return nil, fmt.Errorf("workload reported unlisted metric %s", k)
			}
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload attempted no operations")
	}
	return res, nil
}

// probeMs times a fixed integer and floating-point loop that calls no
// program code (median of five), so a reader can tell drift of a shared
// machine from a change in the program.
func probeMs() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x, f := uint64(88172645463325252), 1.0
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*1.0000001 + float64(x&1023)*1e-9
		}
		probeSink += x + uint64(f)
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

// probeSink keeps the probe loop's result observable so the compiler
// cannot drop the loop.
var probeSink uint64
