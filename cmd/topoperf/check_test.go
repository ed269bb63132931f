package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNoOverlapFires(t *testing.T) {
	ok := []interval{
		{job: "a", gpus: []int{0, 1}, start: 0, end: 10},
		{job: "b", gpus: []int{1, 2}, start: 10, end: 20}, // touches a on GPU 1
		{job: "c", gpus: []int{0}, start: 12, end: 13},
	}
	if bad := checkNoOverlap(ok); len(bad) != 0 {
		t.Fatalf("touching intervals flagged: %v", bad)
	}
	overlapping := append(ok, interval{job: "d", gpus: []int{2}, start: 19.5, end: 30})
	bad := checkNoOverlap(overlapping)
	if len(bad) != 1 || !strings.Contains(bad[0], "GPU 2") {
		t.Fatalf("overlap on GPU 2 not reported exactly once: %v", bad)
	}
	// A short interval nested after a long one still overlaps the long one.
	nested := []interval{
		{job: "long", gpus: []int{5}, start: 0, end: 100},
		{job: "x", gpus: []int{5}, start: 2, end: 3},
		{job: "y", gpus: []int{5}, start: 50, end: 60},
	}
	if bad := checkNoOverlap(nested); len(bad) != 2 {
		t.Fatalf("nested overlaps: got %v, want 2 findings", bad)
	}
}

func TestIntervalShapeFires(t *testing.T) {
	want := map[string]jobShape{"a": {gpus: 2, singleNode: true}, "b": {gpus: 2}}
	machineOf := func(g int) int { return g / 4 }
	if bad := checkIntervalShape([]interval{{job: "a", gpus: []int{0, 1}, end: 1}, {job: "b", gpus: []int{3, 4}, end: 1}}, want, machineOf); len(bad) != 0 {
		t.Fatalf("valid intervals flagged: %v", bad)
	}
	cases := map[string]interval{
		"short":    {job: "a", gpus: []int{0}, end: 1},
		"repeated": {job: "a", gpus: []int{1, 1}, end: 1},
		"spans":    {job: "a", gpus: []int{3, 4}, end: 1},
		"unknown":  {job: "z", gpus: []int{0, 1}, end: 1},
		"backward": {job: "b", gpus: []int{0, 1}, start: 2, end: 1},
	}
	for name, iv := range cases {
		if bad := checkIntervalShape([]interval{iv}, want, machineOf); len(bad) == 0 {
			t.Errorf("%s: violation not reported", name)
		}
	}
}

func TestSlowdownBoundFires(t *testing.T) {
	if err := checkSlowdown("j", 100, 100); err != nil {
		t.Fatalf("run equal to ideal flagged: %v", err)
	}
	if err := checkSlowdown("j", 99, 100); err == nil {
		t.Fatal("a job faster than its best placement was not reported")
	}
	if err := checkSlowdown("j", 1, 0); err == nil {
		t.Fatal("a non-positive ideal time was not reported")
	}
}

func TestConservationFires(t *testing.T) {
	if bad := checkConservation(map[string][]int{"a": {0, 1}, "b": {2}}, 5, 8); len(bad) != 0 {
		t.Fatalf("consistent state flagged: %v", bad)
	}
	cases := map[string]struct {
		running     map[string][]int
		free, total int
	}{
		"shared GPU":     {map[string][]int{"a": {0, 1}, "b": {1}}, 6, 8},
		"lost GPU":       {map[string][]int{"a": {0, 1}}, 5, 8},
		"invented GPU":   {map[string][]int{"a": {0, 1}}, 7, 8},
		"outside fleet":  {map[string][]int{"a": {8}}, 7, 8},
		"negative index": {map[string][]int{"a": {-1}}, 7, 8},
	}
	for name, c := range cases {
		if bad := checkConservation(c.running, c.free, c.total); len(bad) == 0 {
			t.Errorf("%s: violation not reported", name)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if v, err := tailPercentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := tailPercentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond) was reported")
	}
	if v, err := tailPercentile(seq(100), 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := tailPercentile(seq(99), 0.90); err == nil {
		t.Fatal("p90 of 99 samples (9 beyond) was reported")
	}
}

func TestLatencyMedianOfWindows(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		ds := make([]time.Duration, len(vs))
		for i, v := range vs {
			ds[i] = time.Duration(v) * time.Millisecond
		}
		return ds
	}
	// One window slowed by a burst does not move the figure.
	m := map[string]float64{}
	latencyMetrics(m, "submit", [][]time.Duration{ms(1, 2, 3), ms(2, 2, 2), ms(50, 60, 70)})
	if m["submit_p50_ms"] != 2 {
		t.Fatalf("submit_p50_ms = %v, want 2", m["submit_p50_ms"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3, err := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, err)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3, _ := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Fatal("quartiles of one value were reported")
	}
}

func TestCoveredUnionsRootSpans(t *testing.T) {
	spans := []span{
		{Name: "a", Start: 0, End: 10, Parent: -1},
		{Name: "child", Start: 2, End: 50, Parent: 0}, // children do not count
		{Name: "b", Start: 5, End: 20, Parent: -1},
		{Name: "c", Start: 30, End: 40, Parent: -1},
		{Name: "open", Start: 45, End: -1, Parent: -1},
	}
	if got := covered(spans); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
}

func TestBuildResultInsistsOnEveryMetric(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	if _, err := buildResult(&outcome{attempted: 1, metrics: map[string]float64{"a": 1}}, defs); err == nil {
		t.Fatal("a missing metric was accepted")
	}
	if _, err := buildResult(&outcome{attempted: 1, metrics: map[string]float64{"a": 1, "b": 2, "c": 3}}, defs); err == nil {
		t.Fatal("an unlisted metric was accepted")
	}
	if _, err := buildResult(&outcome{metrics: map[string]float64{"a": 1, "b": 2}}, defs); err == nil {
		t.Fatal("a run that attempted nothing was accepted")
	}
	res, err := buildResult(&outcome{attempted: 3, violations: []string{"x"}, metrics: map[string]float64{"a": 1, "b": 2}}, defs)
	if err != nil || res.Correct {
		t.Fatalf("a run with a violation reported correct: %+v, %v", res, err)
	}
}

func TestFrameLayer(t *testing.T) {
	cases := map[string]string{
		"gputopo/internal/schedcore/placecache.(*Cache).Lookup": "placecache",
		"gputopo/internal/schedcore.(*Core).Schedule":           "schedcore",
		"gputopo/internal/serveapi/client.(*Client).doJSON":     "serveapi",
		"gputopo/internal/serve.(*Server).loop.func1":           "serve",
		"gputopo/internal/fm.Bisect":                            "fm",
		"net/http.(*conn).serve":                                "http",
		"encoding/json.Marshal":                                 "http",
		"runtime.mallocgc":                                      "",
		"main.main":                                             "",
	}
	for fn, want := range cases {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeTraces(t *testing.T) {
	// The shape of `go tool pprof -traces -unit=ns` output.
	text := `File: topoperf
Type: cpu
Duration: 3s, Total samples = 3750000000ns (125.00%)
-----------+-------------------------------------------------------
2000000000ns   runtime.mallocgc
             gputopo/internal/core.(*Mapper).Map (inline)
             main.main
-----------+-------------------------------------------------------
1000000000ns   main.main
-----------+-------------------------------------------------------
 500000000ns   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
 250000000ns   gputopo/internal/core.(*Mapper).Map
-----------+-------------------------------------------------------
`
	got, err := attributeTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got["core"]-2.25) > 1e-9 || math.Abs(got["gc"]-0.5) > 1e-9 || len(got) != 2 {
		t.Fatalf("attribution = %v, want core 2.25 s and gc 0.5 s", got)
	}
	for _, bad := range []string{"not a profile", "-----\nten ms   main.main\n"} {
		if _, err := attributeTraces(bad); err == nil {
			t.Fatalf("%q accepted as pprof traces", bad)
		}
	}
}

// TestAttributeCPUReadsPprof checks attributeTraces against the output
// of the installed `go tool pprof` on a real profile.
func TestAttributeCPUReadsPprof(t *testing.T) {
	if testing.Short() {
		t.Skip("takes a CPU profile")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	for time.Since(t0) < 500*time.Millisecond {
		probeSink += uint64(len(frameLayer("gputopo/internal/core.(*Mapper).Map")))
	}
	if _, err := p.stop(path); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputCountsJobsPerBusySecond(t *testing.T) {
	ms := time.Millisecond
	windows := [][]write{
		{{call: 2 * ms}, {call: 2 * ms, release: true}},                                // 1 job in 4 ms: 250/s
		{{call: 1 * ms}, {call: 1 * ms, release: true}, {call: 2 * ms, release: true}}, // 2 jobs in 4 ms: 500/s
		{{call: 10 * ms, release: true}},                                               // 100/s
	}
	if got := throughput(windows); math.Abs(got-250) > 1e-9 {
		t.Fatalf("throughput = %v, want the median window's 250 jobs/s", got)
	}
}
