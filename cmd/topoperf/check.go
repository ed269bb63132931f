package main

import (
	"fmt"
	"slices"
	"sort"
)

// interval is one allocation of a job onto GPUs over [start, end).
type interval struct {
	job        string
	gpus       []int
	start, end float64
}

// jobShape is what a job asked for.
type jobShape struct {
	gpus       int
	singleNode bool
}

// checkNoOverlap sweeps every GPU's allocations in start order and
// reports any GPU held by two intervals at once. Touching intervals (one
// ends when the next starts) are fine.
func checkNoOverlap(ivs []interval) []string {
	type use struct {
		start, end float64
		job        string
	}
	per := map[int][]use{}
	for _, iv := range ivs {
		for _, g := range iv.gpus {
			per[g] = append(per[g], use{iv.start, iv.end, iv.job})
		}
	}
	gpus := make([]int, 0, len(per))
	for g := range per {
		gpus = append(gpus, g)
	}
	sort.Ints(gpus)
	var bad []string
	for _, g := range gpus {
		us := per[g]
		sort.Slice(us, func(a, b int) bool { return us[a].start < us[b].start })
		holder := us[0]
		for _, u := range us[1:] {
			if u.start < holder.end {
				bad = append(bad, fmt.Sprintf("GPU %d held by %s over [%g,%g) and by %s from %g", g, holder.job, holder.start, holder.end, u.job, u.start))
			}
			if u.end > holder.end {
				holder = u
			}
		}
	}
	return bad
}

// checkIntervalShape reports intervals that do not hold exactly the
// requested number of distinct GPUs, that end before they start, or that
// span machines for a single-node job.
func checkIntervalShape(ivs []interval, want map[string]jobShape, machineOf func(gpu int) int) []string {
	var bad []string
	for _, iv := range ivs {
		w, ok := want[iv.job]
		if !ok {
			bad = append(bad, fmt.Sprintf("interval of unknown job %s", iv.job))
			continue
		}
		gs := slices.Clone(iv.gpus)
		slices.Sort(gs)
		if len(slices.Compact(gs)) != w.gpus || len(iv.gpus) != w.gpus {
			bad = append(bad, fmt.Sprintf("job %s holds GPUs %v, asked for %d", iv.job, iv.gpus, w.gpus))
		}
		if iv.end < iv.start {
			bad = append(bad, fmt.Sprintf("job %s interval ends at %g before it starts at %g", iv.job, iv.end, iv.start))
		}
		if w.singleNode && len(iv.gpus) > 1 {
			m := machineOf(iv.gpus[0])
			for _, g := range iv.gpus[1:] {
				if machineOf(g) != m {
					bad = append(bad, fmt.Sprintf("single-node job %s spans machines: GPUs %v", iv.job, iv.gpus))
					break
				}
			}
		}
	}
	return bad
}

// checkSlowdown reports a job that ran faster than its solo time under
// the best placement on an empty cluster — a QoS slowdown below zero,
// which no placement or co-runner can cause. The tolerance covers float
// rounding of the simulated clock.
func checkSlowdown(job string, run, ideal float64) error {
	if ideal <= 0 {
		return fmt.Errorf("job %s: non-positive ideal time %g", job, ideal)
	}
	if run < ideal*(1-1e-9) {
		return fmt.Errorf("job %s ran %g s, faster than its best-placement solo time %g s", job, run, ideal)
	}
	return nil
}

// checkConservation reports running jobs whose GPU sets overlap or fall
// outside the fleet, and a fleet whose running plus free GPUs differ
// from its size.
func checkConservation(running map[string][]int, free, total int) []string {
	var bad []string
	owner := map[int]string{}
	used := 0
	ids := make([]string, 0, len(running))
	for id := range running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, g := range running[id] {
			if g < 0 || g >= total {
				bad = append(bad, fmt.Sprintf("job %s holds GPU %d outside the fleet of %d", id, g, total))
				continue
			}
			if prev, ok := owner[g]; ok {
				bad = append(bad, fmt.Sprintf("GPU %d held by both %s and %s", g, prev, id))
				continue
			}
			owner[g] = id
			used++
		}
	}
	if used+free != total {
		bad = append(bad, fmt.Sprintf("%d running + %d free GPUs != %d in the fleet", used, free, total))
	}
	return bad
}
