package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which
// is how the spread of a set of runs is judged. It needs two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), nil
}

// tailPercentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples, but only when at least ten samples lie beyond it: a tail
// percentile resting on fewer would be no tail. The samples are sorted
// in place.
func tailPercentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g of %d samples", q, n)
	}
	slices.Sort(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, idx)
	if beyond := n - 1 - idx; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need 10", q*100, n, beyond)
	}
	return xs[idx], nil
}

// durations converts durations to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// latencyMetrics fills <prefix>_p50_ms with the median, over the
// measurement windows, of each window's median. A window is one trace's
// replay in the simulated workloads and two seconds of the schedule in
// the served one; the median across windows keeps a burst of load from
// other tenants of a shared machine, covering less than half the run,
// out of the figure. The p90 and p99 over all samples are printed as a
// diagnostic line, the p99 only where ten samples lie beyond it: they
// moved by 25% to 2x between runs of the same build (seed-dependent
// shares of expensive operations in the simulated workloads, machine
// load in the served one), so they carry no bound.
func latencyMetrics(m map[string]float64, prefix string, windows [][]time.Duration) {
	var all []float64
	for _, w := range windows {
		all = append(all, durations(w, time.Millisecond)...)
	}
	m[prefix+"_p50_ms"] = windowedMedian(windows)
	line := fmt.Sprintf("latency: %s over all %d samples: p50 %.4f ms", prefix, len(all), median(all))
	if p90, err := tailPercentile(all, 0.90); err == nil {
		line += fmt.Sprintf(", p90 %.4f ms", p90)
	}
	if p99, err := tailPercentile(all, 0.99); err == nil {
		line += fmt.Sprintf(", p99 %.4f ms", p99)
	}
	fmt.Println(line + " (diagnostic)")
}

// windowedMedian is the median over windows of each window's median, in
// milliseconds.
func windowedMedian(windows [][]time.Duration) float64 {
	var p50s []float64
	for _, w := range windows {
		p50s = append(p50s, median(durations(w, time.Millisecond)))
	}
	return median(p50s)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
