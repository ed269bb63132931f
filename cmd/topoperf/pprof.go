package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// attributeCPU reads the CPU profile at path through `go tool pprof
// -traces` and returns CPU seconds per layer (see attributeTraces).
func attributeCPU(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return attributeTraces(string(out))
}

// attributeTraces buckets the samples of `go tool pprof -traces -unit=ns`
// output by layer. A sample with a garbage-collector frame anywhere in
// its stack counts as "gc"; any other sample goes to the innermost frame
// that belongs to a repository package (by its last path element, the
// typed client counting as serveapi) or to net/http or encoding/json
// ("http"). Samples in neither count nowhere.
//
// Each sample is a block between dashed separator lines: its first line
// is the value ("10000000ns") and the leaf frame, the next lines one
// caller each.
func attributeTraces(text string) (map[string]float64, error) {
	out := map[string]float64{}
	var ns int64
	var frames []string
	flush := func() {
		if l := stackLayer(frames); l != "" {
			out[l] += float64(ns) / 1e9
		}
		frames = frames[:0]
	}
	inSamples, head := false, false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inSamples, head = true, true
			continue
		}
		f := strings.Fields(line)
		if !inSamples || len(f) == 0 {
			continue
		}
		if head {
			v, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected sample line %q", line)
			}
			ns, f, head = v, f[1:], false
		}
		frames = append(frames, f[0]) // an "(inline)" mark is a field of its own
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inSamples {
		return nil, fmt.Errorf("pprof traces: no samples in the output")
	}
	flush()
	return out, nil
}

// stackLayer implements attributeTraces' rule for one stack (leaf first).
func stackLayer(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") || strings.HasPrefix(f, "runtime.bgscavenge") {
			return "gc"
		}
	}
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return ""
}

// frameLayer maps a function name to its layer, or "".
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "encoding/json.") {
		return "http"
	}
	rest, ok := strings.CutPrefix(fn, "gputopo/internal/")
	if !ok {
		return ""
	}
	// The package path ends at the first "." after its last "/".
	slash := strings.LastIndex(rest, "/")
	dot := strings.Index(rest[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	pkg := rest[:slash+1+dot]
	switch pkg {
	case "serveapi/client":
		return "serveapi"
	case "sched":
		return "schedcore"
	}
	return pkg[strings.LastIndex(pkg, "/")+1:]
}
