package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gputopo/internal/eventlog"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/serve"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

// serveWorkload drives the sharded /v1 server over loopback HTTP with an
// open-loop schedule: §5.3 jobs arrive by a seeded Poisson process, and
// once more than occupancy jobs are live the oldest is deleted, half-way
// to the next arrival. Every submission stays live until deleted, so the
// fleet stays near full, some submissions queue and some deletions
// unblock them. One writer connection sends the schedule in order (so
// the server sees the same operations in the same order on every run of
// a seed); one watcher connection pages /v1/decisions and reads
// /v1/state beside it.
type serveWorkload struct {
	topo       string
	ratePerS   float64       // arrivals per second
	occupancy  int           // live jobs kept
	readEvery  time.Duration // watcher pause between decision pages
	stateEvery time.Duration // watcher pause between /v1/state checks
	reopenReps int           // timed reopens in the recovery probe
}

// serveFsyncEvery groups the log's fsyncs: one every 16 batches. With an
// fsync on every batch, write latency on a shared VM disk moved 2-3x
// between runs with the other tenants' I/O; every record is still written
// before its reply. Snapshots keep the server's default cadence.
const serveFsyncEvery = 16

var serveSharded = serveWorkload{
	topo:       "mix[minsky:4+dgx1:2+pcie:2]/domains[hash:2]",
	ratePerS:   100,
	occupancy:  36,
	readEvery:  50 * time.Millisecond,
	stateEvery: 500 * time.Millisecond,
	reopenReps: 3,
}

// serveSetup is what set-up produces: the job schedule and a running
// server.
type serveSetup struct {
	cfg  serve.Config
	topo *topology.Topology // the whole fleet; GPU indices are global
	jobs []*job.Job         // Arrival is the due time in seconds from the start
	want map[string]jobShape
	srv  *liveServer
}

// liveServer is a MultiServer behind an HTTP listener on loopback.
type liveServer struct {
	ms   *serve.MultiServer
	http *http.Server
	url  string
	done chan error
}

// startServer opens (or reopens) the domains' logs and serves them.
func startServer(cfg serve.Config, hc *http.Client) (*liveServer, error) {
	ms, err := serve.NewMulti(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ms.Kill()
		return nil, err
	}
	ls := &liveServer{ms: ms, http: &http.Server{Handler: ms.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.http.Serve(ln) }()
	if err := client.New(ls.url, client.WithHTTPClient(hc)).Health(context.Background()); err != nil {
		ls.stop(false)
		return nil, err
	}
	return ls, nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine, then shuts the domains down: gracefully (final snapshot) or
// as a crash (no snapshot).
func (ls *liveServer) stop(graceful bool) error {
	herr := ls.http.Close()
	if err := <-ls.done; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	if graceful {
		if err := ls.ms.Close(); err != nil {
			return err
		}
	} else {
		ls.ms.Kill()
	}
	return herr
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: maxProcs, MaxConnsPerHost: maxProcs},
	}
}

func (w serveWorkload) setup(seed uint64, seconds float64, logPath string, hc *http.Client) (*serveSetup, error) {
	spec, err := sweep.ParseTopologyArg(w.topo)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{
		cfg: serve.Config{
			Spec: spec, Policy: schedcore.TopoAwareP, LogPath: logPath,
			FsyncEvery: serveFsyncEvery,
		},
		want: map[string]jobShape{},
	}
	if s.topo, err = spec.Build(spec.EffectiveMachines(1), false); err != nil {
		return nil, err
	}
	s.jobs, err = workload.Generate(workload.GenConfig{
		Jobs:        int(w.ratePerS * seconds),
		ArrivalRate: w.ratePerS * 60,
		Seed:        seed,
	}, s.topo)
	if err != nil {
		return nil, err
	}
	for _, j := range s.jobs {
		s.want[j.ID] = jobShape{gpus: j.GPUs, singleNode: j.SingleNode}
	}
	s.srv, err = startServer(s.cfg, hc)
	return s, err
}

// serveOp is one scheduled operation of the open loop.
type serveOp struct {
	due     float64 // seconds from the start
	submit  bool
	job     *job.Job
	release string // job ID to delete
}

// schedule interleaves the arrivals with the deletions they trigger.
func (w serveWorkload) schedule(jobs []*job.Job) []serveOp {
	ops := make([]serveOp, 0, 2*len(jobs))
	gap := 1 / w.ratePerS
	for i, j := range jobs {
		ops = append(ops, serveOp{due: j.Arrival, submit: true, job: j})
		if i >= w.occupancy {
			next := j.Arrival + gap
			if i+1 < len(jobs) {
				next = jobs[i+1].Arrival
			}
			ops = append(ops, serveOp{due: (j.Arrival + next) / 2, release: jobs[i-w.occupancy].ID})
		}
	}
	return ops
}

// latencyWindow is the length of schedule whose latencies form one
// window of latencyMetrics: about 200 submissions at the offered rate.
const latencyWindow = 2.0

// addToWindow files a sample under the window of its due time.
func addToWindow[T any](ws [][]T, due float64, x T) [][]T {
	i := int(due / latencyWindow)
	for len(ws) <= i {
		ws = append(ws, nil)
	}
	ws[i] = append(ws[i], x)
	return ws
}

// mergeShortTail folds a final window under half the others' typical
// size into the one before it.
func mergeShortTail[T any](ws [][]T) [][]T {
	n := len(ws)
	if n >= 2 && 2*len(ws[n-1]) < len(ws[0]) {
		ws[n-2] = append(ws[n-2], ws[n-1]...)
		ws = ws[:n-1]
	}
	return ws
}

// write is one answered submission or deletion of the open loop.
type write struct {
	call    time.Duration // client call time
	release bool
}

// throughput is the median, over windows of the schedule, of each
// window's deletions (jobs completed) per second of the summed client
// call time of its submissions and deletions: the rate at which the
// server completes jobs while it works, which the open loop's fixed
// offered rate does not bound.
func throughput(windows [][]write) float64 {
	var rates []float64
	for _, win := range windows {
		var busy time.Duration
		jobs := 0
		for _, w := range win {
			busy += w.call
			if w.release {
				jobs++
			}
		}
		rates = append(rates, ratio(float64(jobs), busy.Seconds()))
	}
	return median(rates)
}

// servePass is what one timed pass over the schedule measured.
type servePass struct {
	submit, release [][]time.Duration // by window of the schedule
	writes          [][]write         // by window of the schedule
	late            []time.Duration
	reads           []time.Duration
	callSpans       []time.Duration // client call time of each write
	opLatency       []time.Duration // latency from due of each write
	submitTime      map[string]float64
	placed          map[string]placement
	live            []string
	elapsed         time.Duration
	released        int
	ops             int
	spans           []span
}

// pass runs the open-loop schedule against the server and the watcher
// beside it.
func (w serveWorkload) pass(o *outcome, s *serveSetup, hc *http.Client, traced bool) (*servePass, error) {
	ctx := context.Background()
	cl := client.New(s.srv.url, client.WithHTTPClient(hc))
	p := &servePass{submitTime: map[string]float64{}}
	start := time.Now()
	var wtr, rtr *tracer
	if traced {
		wtr, rtr = newTracer(start), newTracer(start)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var watch *watcher
	wg.Add(1)
	go func() {
		defer wg.Done()
		watch = w.watch(ctx, s, hc, cl, stop, rtr)
	}()

	var live []string
	for _, op := range w.schedule(s.jobs) {
		due := start.Add(time.Duration(op.due * float64(time.Second)))
		pace(due)
		p.late = append(p.late, time.Since(due))
		p.ops++
		if op.submit {
			sp := wtr.begin("client.SubmitJob", -1)
			c0 := time.Now()
			resp, err := cl.SubmitJob(ctx, serveapi.SpecOf(op.job).JobRequest)
			call := time.Since(c0)
			wtr.end(sp)
			lat := time.Since(due)
			if err != nil {
				o.failed++
				o.violate("submit %s: %v", op.job.ID, err)
				continue
			}
			if resp.Status != "placed" && resp.Status != "queued" {
				o.violate("submit %s answered %q", op.job.ID, resp.Status)
			}
			p.submit = addToWindow(p.submit, op.due, lat)
			p.writes = addToWindow(p.writes, op.due, write{call: call})
			p.callSpans, p.opLatency = append(p.callSpans, call), append(p.opLatency, lat)
			p.submitTime[op.job.ID] = resp.Time
			live = append(live, op.job.ID)
			continue
		}
		sp := wtr.begin("client.ReleaseJob", -1)
		c0 := time.Now()
		resp, err := cl.ReleaseJob(ctx, op.release)
		call := time.Since(c0)
		wtr.end(sp)
		lat := time.Since(due)
		if err != nil {
			o.failed++
			o.violate("delete %s: %v", op.release, err)
			continue
		}
		if resp.Status != "released" && resp.Status != "withdrawn" {
			o.violate("delete %s answered %q", op.release, resp.Status)
		}
		p.release = addToWindow(p.release, op.due, lat)
		p.writes = addToWindow(p.writes, op.due, write{call: call, release: true})
		p.callSpans, p.opLatency = append(p.callSpans, call), append(p.opLatency, lat)
		p.released++
		if len(live) > 0 && live[0] == op.release {
			live = live[1:]
		}
	}
	p.elapsed = time.Since(start)
	p.submit, p.release, p.writes = mergeShortTail(p.submit), mergeShortTail(p.release), mergeShortTail(p.writes)
	close(stop)
	wg.Wait()
	p.live = live
	p.reads = watch.reads
	p.placed = watch.placed
	for _, v := range watch.violations {
		o.violate("%s", v)
	}
	if traced {
		p.spans = append(wtr.spans, rtr.spans...)
	}
	return p, nil
}

// pace returns at due. Sleeping alone would overshoot by up to a
// millisecond, since the runtime's network poller waits in whole
// milliseconds, and that overshoot would count as request latency; so
// the last millisecond yields in a loop instead.
func pace(due time.Time) {
	if d := time.Until(due) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// watcher is what the reading connection saw.
type watcher struct {
	reads      []time.Duration
	placed     map[string]placement // first placement of each job
	violations []string
}

// placement is a job's first logged placement.
type placement struct {
	time float64 // server clock
	gpus []int
}

// watch pages every domain's decisions and periodically checks the
// state until stop closes, then drains the decision logs once more.
func (w serveWorkload) watch(ctx context.Context, s *serveSetup, hc *http.Client, cl *client.Client, stop <-chan struct{}, tr *tracer) *watcher {
	wt := &watcher{placed: map[string]placement{}}
	domains := s.srv.ms.Domains()
	after := make([]int, domains)
	lastState := time.Now()
	bad := func(format string, args ...any) {
		if len(wt.violations) < 20 {
			wt.violations = append(wt.violations, fmt.Sprintf(format, args...))
		}
	}
	page := func(d int) (more bool) {
		sp := tr.begin("http.GET /v1/decisions", -1)
		t0 := time.Now()
		resp, err := decisionsPage(ctx, hc, s.srv.url, d, after[d])
		wt.reads = append(wt.reads, time.Since(t0))
		tr.end(sp)
		if err != nil {
			bad("decisions of domain %d: %v", d, err)
			return false
		}
		if resp.Truncated {
			bad("decisions of domain %d: the ring dropped records after seq %d", d, after[d])
		}
		for _, r := range resp.Decisions {
			if !r.Placed || r.Evicted {
				continue
			}
			if want := s.want[r.JobID].gpus; len(r.GPUs) != want {
				bad("logged placement of %s holds %d GPUs, asked for %d", r.JobID, len(r.GPUs), want)
			}
			if _, ok := wt.placed[r.JobID]; !ok {
				wt.placed[r.JobID] = placement{time: r.Time, gpus: r.GPUs}
			}
		}
		if resp.NextAfter > after[d] {
			after[d] = resp.NextAfter
		}
		return len(resp.Decisions) == decisionsPageLimit
	}
	for {
		for d := 0; d < domains; d++ {
			page(d)
		}
		if time.Since(lastState) >= w.stateEvery {
			sp := tr.begin("client.State", -1)
			st, err := cl.State(ctx)
			tr.end(sp)
			if err != nil {
				bad("state: %v", err)
			} else {
				for _, v := range stateViolations(st) {
					bad("state: %s", v)
				}
			}
			lastState = time.Now()
		}
		select {
		case <-stop:
			for d := 0; d < domains; d++ {
				for page(d) {
				}
			}
			return wt
		case <-time.After(w.readEvery):
		}
	}
}

const decisionsPageLimit = 512

// decisionsPage reads one page of domain d's decisions. The typed client
// pages only domain 0 of a sharded server, so this builds the request.
func decisionsPage(ctx context.Context, hc *http.Client, base string, d, after int) (*serveapi.DecisionsResponse, error) {
	url := fmt.Sprintf("%s/v1/decisions?domain=%d&after=%d&limit=%d", base, d, after, decisionsPageLimit)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var out serveapi.DecisionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return &out, nil
}

// stateViolations checks GPU conservation in a state snapshot.
func stateViolations(st *serveapi.StateResponse) []string {
	running := make(map[string][]int, len(st.Running))
	for _, r := range st.Running {
		running[r.ID] = r.GPUs
	}
	return checkConservation(running, st.FreeGPUs, st.GPUs)
}

// drain deletes every live job, oldest first, and checks that the fleet
// and the queue end empty.
func drain(o *outcome, s *serveSetup, hc *http.Client, live []string) error {
	ctx := context.Background()
	cl := client.New(s.srv.url, client.WithHTTPClient(hc))
	for _, id := range live {
		resp, err := cl.ReleaseJob(ctx, id)
		o.attempted++
		if err != nil {
			o.failed++
			o.violate("final delete %s: %v", id, err)
			continue
		}
		if resp.Status != "released" && resp.Status != "withdrawn" {
			o.violate("final delete %s answered %q", id, resp.Status)
		}
	}
	st, err := cl.State(ctx)
	if err != nil {
		return err
	}
	if len(st.Running) != 0 || len(st.Queue) != 0 || st.FreeGPUs != st.GPUs {
		o.violate("after the final deletes: %d running, %d queued, %d of %d GPUs free", len(st.Running), len(st.Queue), st.FreeGPUs, st.GPUs)
	}
	for _, v := range stateViolations(st) {
		o.violate("final state: %s", v)
	}
	return nil
}

// meanWait is the mean time from a job's submission to its placement,
// in server seconds, over the jobs that placed. Jobs are visited in
// schedule order so the float sum does not depend on map order.
func meanWait(s *serveSetup, p *servePass) float64 {
	var total float64
	n := 0
	for _, j := range s.jobs {
		pl, ok := p.placed[j.ID]
		sub, submitted := p.submitTime[j.ID]
		if ok && submitted {
			total += pl.time - sub
			n++
		}
	}
	return ratio(total, float64(n))
}

// qos is the mean placement slowdown of the placed jobs: solo time on
// the GPUs they got over solo time on the best allocation, minus one.
func qos(s *serveSetup, placed map[string]placement) (float64, error) {
	var total float64
	n := 0
	for _, j := range s.jobs {
		pl, ok := placed[j.ID]
		if !ok {
			continue
		}
		got := float64(j.Iterations) * perfmodel.IterationTimeMode(j.Model, j.BatchSize, s.topo, pl.gpus, 1, j.Parallelism)
		ideal := idealTime(s.topo, j)
		if err := checkSlowdown(j.ID, got, ideal); err != nil {
			return 0, err
		}
		total += got/ideal - 1
		n++
	}
	if n != len(placed) {
		return 0, fmt.Errorf("%d placements logged for jobs never submitted", len(placed)-n)
	}
	return ratio(total, float64(n)), nil
}

func (w serveWorkload) run(o runOpts) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	// Set up several times, each on fresh logs; keep the last server.
	var setupS []float64
	var s *serveSetup
	var spent time.Duration
	for n := 0; moreSetups(n, spent); n++ {
		if s != nil {
			if err := s.srv.stop(true); err != nil {
				return nil, err
			}
		}
		logDir := filepath.Join(o.dir, fmt.Sprintf("setup%d", n))
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = w.setup(o.seed, o.seconds, filepath.Join(logDir, "events.log"), hc); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
	}

	pass, err := w.measure(out, s, filepath.Join(o.dir, "probe"), hc, false)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		m := out.metrics
		m["jobs_per_s"] = throughput(pass.writes)
		m["qos_slowdown"] = pass.qos
		latencyMetrics(m, "submit", pass.submit)
		latencyMetrics(m, "release", pass.release)
		m["setup_s"] = median(setupS)
		m["peak_heap_mb"] = pass.peakMB
		return out, nil
	}

	// Traced pass: a fresh server on fresh logs, spans on every client
	// call and a CPU profile; then the journal is re-appended.
	logDir := filepath.Join(o.dir, "traced")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	s.cfg.LogPath = filepath.Join(logDir, "events.log")
	if s.srv, err = startServer(s.cfg, hc); err != nil {
		return nil, err
	}
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, err := w.measure(out, s, filepath.Join(o.dir, "traced-probe"), hc, true)
	spansPath, profPath := tracedOutputs(o)
	cpu, perr := prof.stop(profPath)
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}

	m := out.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	jl := traced.journal
	spans := append(traced.spans, jl.spans...)
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}
	st := traced.before
	m["schedcore.decisions"] = float64(st.Stats.Decisions)
	m["schedcore.postponements"] = float64(st.Stats.Postponements)
	m["schedcore.gate_skips"] = float64(st.Stats.GateSkips)
	m["schedcore.wake_skips"] = float64(st.Stats.WakeSkips)
	m["schedcore.wake_skip_ratio"] = ratio(float64(st.Stats.WakeSkips), float64(st.Stats.Postponements))
	m["schedcore.preemptions"] = float64(st.Stats.Preemptions)
	m["schedcore.evictions"] = float64(st.Stats.Evictions)
	m["schedcore.schedule_busy_s"] = st.Stats.TotalDecisionMs / 1000
	if pc := st.PlaceCache; pc != nil {
		m["placecache.hits"] = float64(pc.Hits)
		m["placecache.misses"] = float64(pc.Misses)
		m["placecache.hit_ratio"] = ratio(float64(pc.Hits), float64(pc.Hits+pc.Misses))
		m["placecache.evictions"] = float64(pc.Evictions)
	}
	m["schedcore.wait_s"] = meanWait(s, traced.servePass)
	m["serve.read_p50_ms"] = median(durations(traced.reads, time.Millisecond))
	m["serve.recover_s"] = median(durations(traced.probe.reopen, time.Second))
	lateMs := durations(traced.late, time.Millisecond)
	m["serve.late_p50_ms"] = median(lateMs)
	for _, l := range lateMs {
		m["serve.late_max_ms"] = max(m["serve.late_max_ms"], l)
	}
	if lg := st.Log; lg != nil {
		m["eventlog.syncs_per_op"] = ratio(float64(lg.Syncs), float64(traced.ops))
		m["eventlog.snapshots"] = float64(lg.Snapshots)
	}
	m["eventlog.records"] = float64(jl.records)
	m["eventlog.bytes_per_op"] = ratio(float64(jl.bytes), float64(jl.ops))
	m["eventlog.append_p50_us"] = median(durations(jl.appends, time.Microsecond))
	m["eventlog.sync_p50_us"] = median(durations(jl.syncs, time.Microsecond))
	m["eventlog.replayed_records"] = float64(traced.probe.replayed)
	m["eventlog.open_s"] = jl.open.Seconds()
	putCPU(m, cpu)
	// Overhead compares the two passes' write latencies as the untraced
	// run reports them (median over windows of the window medians).
	m["trace.overhead"] = ratio(windowedMedian(traced.submit)+windowedMedian(traced.release),
		windowedMedian(pass.submit)+windowedMedian(pass.release)) - 1
	m["trace.residual_share"] = 1 - ratio(sum(traced.callSpans).Seconds(), sum(traced.opLatency).Seconds())
	m["trace.spans"] = float64(len(spans))
	return out, nil
}

// measured is one full pass: the open loop, the final deletes, the kill,
// and the recovery probe.
type measured struct {
	*servePass
	before  *serveapi.StateResponse // state after the final deletes
	journal *journalTimes           // traced passes only
	probe   *probeResult
	qos     float64
	peakMB  float64
}

// measure runs the open loop on s's server and checks it, deletes every
// job left, and kills the server without its final snapshot; a traced
// pass then times the eventlog layer on the killed logs. The recovery
// probe follows in probeDir.
//
// The killed logs are not reopened: they hold mid-run snapshots, and
// reopening a log whose snapshot holds parked jobs fails (see
// recoveryProbe), on some seeds and not others. The probe checks crash
// recovery on fixed inputs instead.
func (w serveWorkload) measure(o *outcome, s *serveSetup, probeDir string, hc *http.Client, traced bool) (*measured, error) {
	peak := startHeapPeak()
	p, err := w.pass(o, s, hc, traced)
	peakMB := peak.stopMB()
	if err != nil {
		return nil, err
	}
	o.attempted += p.ops
	if n := len(p.submitTime); n < len(s.jobs) {
		o.violate("%d of %d submissions answered", n, len(s.jobs))
	}

	// Placement quality comes from the decision log the watcher read.
	q, err := qos(s, p.placed)
	if err != nil {
		o.violate("%v", err)
	}
	if err := drain(o, s, hc, p.live); err != nil {
		return nil, err
	}
	mp := &measured{servePass: p, qos: q, peakMB: peakMB}
	if mp.before, err = client.New(s.srv.url, client.WithHTTPClient(hc)).State(context.Background()); err != nil {
		return nil, err
	}
	var logs []string
	for d := 0; d < s.srv.ms.Domains(); d++ {
		logs = append(logs, fmt.Sprintf("%s.d%d", s.cfg.LogPath, d))
	}
	if err := s.srv.stop(false); err != nil {
		return nil, err
	}
	if traced {
		scratch := filepath.Join(filepath.Dir(s.cfg.LogPath), "reappend.log")
		if mp.journal, err = journal(logs, scratch); err != nil {
			return nil, err
		}
	}
	if mp.probe, err = w.recoveryProbe(o, probeDir, hc); err != nil {
		return nil, err
	}
	return mp, nil
}

// journalTimes is the eventlog layer timed on the run's own journal.
type journalTimes struct {
	open           time.Duration
	records, ops   int
	bytes          int64
	appends, syncs []time.Duration
	spans          []span
}

// journal opens each domain's log under the timer, then re-appends every
// record to a scratch log, syncing once per operation as the serving
// loop's group commit does when each batch holds one operation.
func journal(logs []string, scratch string) (*journalTimes, error) {
	jt := &journalTimes{}
	tr := newTracer(time.Now())
	var recs []eventlog.Record
	for _, path := range logs {
		sp := tr.begin("eventlog.Open", -1)
		t0 := time.Now()
		l, err := eventlog.Open(path, func(r eventlog.Record) error {
			recs = append(recs, r)
			return nil
		})
		jt.open += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err := l.Close(); err != nil {
			return nil, err
		}
	}
	jt.records = len(recs)
	l, err := eventlog.Open(scratch, func(eventlog.Record) error { return nil })
	if err != nil {
		return nil, err
	}
	syncNow := func() error {
		sp := tr.begin("eventlog.Sync", -1)
		t0 := time.Now()
		err := l.Sync()
		jt.syncs = append(jt.syncs, time.Since(t0))
		tr.end(sp)
		return err
	}
	for i, r := range recs {
		isOp := r.Type == eventlog.TypeSubmit || r.Type == eventlog.TypeRelease || r.Type == eventlog.TypeWithdraw
		if isOp {
			jt.ops++
			if i > 0 {
				if err := syncNow(); err != nil {
					l.Close()
					return nil, err
				}
			}
		}
		sp := tr.begin("eventlog.Append", -1)
		t0 := time.Now()
		err := l.Append(r)
		jt.appends = append(jt.appends, time.Since(t0))
		tr.end(sp)
		if err != nil {
			l.Close()
			return nil, err
		}
	}
	if err := syncNow(); err != nil {
		l.Close()
		return nil, err
	}
	jt.bytes = l.BytesSinceRewrite()
	jt.spans = tr.spans
	return jt, l.Close()
}
