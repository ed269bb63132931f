package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"time"
)

// span is one timed call into a layer, made from this package. Parent
// is the index of the span that caused it, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pass nil. One tracer belongs
// to one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// durations returns the lengths of the closed spans with the name.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// covered returns the time the union of the root spans covers.
func covered(spans []span) time.Duration {
	var roots []span
	for _, s := range spans {
		if s.Parent < 0 && s.End >= 0 {
			roots = append(roots, s)
		}
	}
	slices.SortFunc(roots, func(a, b span) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	})
	var total, curStart, curEnd int64
	curEnd = -1
	for _, s := range roots {
		if s.Start > curEnd {
			if curEnd >= 0 {
				total += curEnd - curStart
			}
			curStart, curEnd = s.Start, s.End
			continue
		}
		curEnd = max(curEnd, s.End)
	}
	if curEnd >= 0 {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// writeSpans writes the spans of a traced run as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuProfile is a CPU profile being taken of a traced pass.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, writes it to path, and returns the CPU seconds
// `go tool pprof` attributes to each layer.
func (p *cpuProfile) stop(path string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return attributeCPU(path)
}

// tracedOutputs names the files a traced run keeps.
func tracedOutputs(o runOpts) (spansPath, profilePath string) {
	base := fmt.Sprintf("%s-seed%d", o.name, o.seed)
	return filepath.Join(o.outDir, base+".spans.jsonl"), filepath.Join(o.outDir, base+".cpu.pprof")
}

// cpuLayers are the buckets attributeCPU fills, each reported as
// <layer>.self_cpu_s.
var cpuLayers = []string{"schedcore", "placecache", "core", "fm", "cluster", "topology", "simulator", "domains", "serve", "serveapi", "http", "eventlog", "gc"}

// putCPU copies the attributed CPU seconds into the metrics.
func putCPU(m map[string]float64, cpu map[string]float64) {
	for _, l := range cpuLayers {
		m[l+".self_cpu_s"] = cpu[l]
	}
}
