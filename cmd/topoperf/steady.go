package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness report reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyRuns is the number of runs in each set of a steadiness report.
const steadyRuns = 5

// steadyReport runs two sets of runs of this build on each workload,
// with different seeds in the two sets, and prints for every end-to-end
// metric each set's median and quartiles, the spread within each set
// (interquartile range over median) and whether the medians agree
// within the metric's bound.
func steadyReport(benchPath string, seconds int) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	allAgree := true
	for _, name := range workloadNames() {
		var sets [2][]*result
		var probes [2][]float64
		for set := 0; set < 2; set++ {
			for i := 0; i < steadyRuns; i++ {
				seed := uint64(set*steadyRuns + i + 1)
				res, probe, err := runOnce(exe, name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, seed, err)
				}
				sets[set] = append(sets[set], res)
				probes[set] = append(probes[set], probe)
			}
		}
		fmt.Printf("\n%s: %d runs per set, %d s each; probe median %.2f ms / %.2f ms\n\n", name, steadyRuns, seconds, median(probes[0]), median(probes[1]))
		fmt.Println("| metric | set 1 median [q1, q3] | set 2 median [q1, q3] | spread 1 | spread 2 | spread all | shift | bound | agree |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, m := range bf.EndToEnd {
			var meds [2]float64
			var cells [2]string
			var spreads [2]float64
			var both []float64
			for set := 0; set < 2; set++ {
				var xs []float64
				for _, r := range sets[set] {
					xs = append(xs, r.Metrics[m.Name].Value)
				}
				both = append(both, xs...)
				q1, q3, err := quartiles(xs)
				if err != nil {
					return err
				}
				meds[set] = median(xs)
				spreads[set] = ratio(q3-q1, meds[set])
				cells[set] = fmt.Sprintf("%.4g [%.4g, %.4g]", meds[set], q1, q3)
			}
			q1, q3, err := quartiles(both)
			if err != nil {
				return err
			}
			shift := ratio(meds[1]-meds[0], meds[0])
			agree := math.Abs(shift) <= m.Bound
			allAgree = allAgree && agree
			fmt.Printf("| %s | %s | %s | %.3f | %.3f | %.3f | %+.3f | %.2f | %v |\n", m.Name, cells[0], cells[1], spreads[0], spreads[1], ratio(q3-q1, median(both)), shift, m.Bound, agree)
		}
		var failed [2]string
		for set := 0; set < 2; set++ {
			att, fl := 0, 0
			for _, r := range sets[set] {
				att += r.Attempted
				fl += r.Failed
			}
			failed[set] = fmt.Sprintf("%d/%d", fl, att)
		}
		fmt.Printf("\nfailed/attempted: set 1 %s, set 2 %s\n", failed[0], failed[1])
	}
	if !allAgree {
		fmt.Println("\nsome medians moved by more than their bound")
	}
	return nil
}

// runOnce runs one untraced benchmark run as a child process and returns
// its result line and its machine-speed probe.
func runOnce(exe, name string, seed uint64, seconds int) (*result, float64, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, err
	}
	var last string
	probe := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "probe: fixed compute loop "); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				probe, _ = strconv.ParseFloat(f[0], 64)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, 0, fmt.Errorf("result line %q: %w", last, err)
	}
	if !res.Correct {
		return nil, 0, fmt.Errorf("run reported incorrect output")
	}
	return &res, probe, nil
}
