package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/profile"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
	"gputopo/internal/workload"
)

// simWorkload is a simulated workload: §5.3 generated traces run through
// simulator.Run on a substrate built once, then replayed through a bare
// scheduling core to time each Submit and Release with the scheduling
// round that follows it.
type simWorkload struct {
	topo       string  // topology spec in the sweep cell-key syntax
	jobs       int     // jobs per trace
	ratePerMin float64 // Poisson arrival rate of the whole fleet, jobs per minute
	traces     int     // traces per round, each generated from the seed
	discipline string  // queue discipline ("" is arrival FIFO)
	preempt    bool
	highShare  float64 // share of jobs tagged priority 1
}

// fleet1000 is scenario 2 of §5.5: TOPO-AWARE-P with FIFO on 1000 Minsky
// machines at 2 jobs per machine per minute.
var fleet1000 = simWorkload{topo: "minsky:1000", jobs: 2000, ratePerMin: 2 * 1000, traces: 4}

// mixedPreempt overloads ten mixed machines (52 GPUs) with a 20%
// priority-1 stream under the priority discipline with preemption.
var mixedPreempt = simWorkload{
	topo: "mix[minsky:4+dgx1:3+pcie:3]", jobs: 3000, ratePerMin: 15, traces: 24,
	discipline: "priority", preempt: true, highShare: 0.2,
}

type simSetup struct {
	topo   *topology.Topology
	prof   *profile.Store
	traces [][]*job.Job
	// Stage times of this set-up.
	build, profile, generate time.Duration
}

// traceSeed derives the seed of trace k of a run.
func traceSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) }

func (w simWorkload) setup(seed uint64) (*simSetup, error) {
	s := &simSetup{}
	t0 := time.Now()
	spec, err := sweep.ParseTopologyArg(w.topo)
	if err != nil {
		return nil, err
	}
	if s.topo, err = spec.Build(spec.EffectiveMachines(1), false); err != nil {
		return nil, err
	}
	t1 := time.Now()
	s.prof = profile.Generate(s.topo, min(s.topo.NumGPUs(), 8))
	t2 := time.Now()
	for k := 0; k < w.traces; k++ {
		jobs, err := workload.Generate(workload.GenConfig{
			Jobs:              w.jobs,
			ArrivalRate:       w.ratePerMin,
			HighPriorityShare: w.highShare,
			Seed:              traceSeed(seed, k),
		}, s.topo)
		if err != nil {
			return nil, err
		}
		s.traces = append(s.traces, jobs)
	}
	s.build, s.profile, s.generate = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return s, nil
}

func (w simWorkload) config(s *simSetup, seed uint64, k int) simulator.Config {
	return simulator.Config{
		Topology:         s.topo,
		Policy:           schedcore.TopoAwareP,
		Profiles:         s.prof,
		Seed:             traceSeed(seed, k),
		Discipline:       w.discipline,
		EnablePreemption: w.preempt,
	}
}

// simRound is one pass over every trace of a run.
type simRound struct {
	wall       time.Duration   // the whole round
	runWall    time.Duration   // summed simulator.Run time
	runTimes   []time.Duration // each trace's simulator.Run time
	allocBytes uint64          // heap bytes allocated by the Run calls
	results    []*simulator.Result
	submit     [][]time.Duration // per trace: Submit + the scheduling rounds after it
	release    [][]time.Duration // per trace: Release + the scheduling rounds after it
	peaksMB    []float64         // peak live heap of each trace's Run and replay
	ops        int
}

// round runs every trace through simulator.Run and replays it through a
// bare core, checking that the replay places every job where the
// simulator did. A round with a reference (every round after the first)
// checks that each trace reproduced the reference's schedule and keeps
// no results, so the live heap does not grow with the rounds a run fits.
func (w simWorkload) round(o *outcome, s *simSetup, seed uint64, ref *simRound, tr *tracer, hp *heapPeak) (*simRound, error) {
	r := &simRound{}
	t0 := time.Now()
	for k, jobs := range s.traces {
		cfg := w.config(s, seed, k)
		sp := tr.begin("simulator.Run", -1)
		a0 := allocatedBytes()
		r0 := time.Now()
		res, err := simulator.Run(cfg, jobs)
		r.runTimes = append(r.runTimes, time.Since(r0))
		r.runWall += r.runTimes[k]
		r.allocBytes += allocatedBytes() - a0
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("trace %d: %w", k, err)
		}
		if ref == nil {
			r.results = append(r.results, res)
		} else if !sameResult(ref.results[k], res) {
			o.violate("trace %d did not reproduce the first round's schedule", k)
		}
		rep, err := replay(s, cfg, jobs, res, tr)
		if err != nil {
			return nil, fmt.Errorf("trace %d replay: %w", k, err)
		}
		for _, jr := range res.Jobs {
			if got := rep.gpus[jr.Job.ID]; !slices.Equal(got, jr.GPUs) {
				o.violate("trace %d: core replay put %s on %v, the simulator on %v", k, jr.Job.ID, got, jr.GPUs)
			}
		}
		r.submit = append(r.submit, rep.submit)
		r.release = append(r.release, rep.release)
		r.ops += len(jobs) + len(rep.submit) + len(rep.release)
		r.peaksMB = append(r.peaksMB, hp.takeMB())
	}
	r.wall = time.Since(t0)
	return r, nil
}

type replayOut struct {
	submit, release []time.Duration
	gpus            map[string][]int // last placement of each job
}

// replay drives a core built the way simulator.Run builds its own
// through the run's arrivals and final completions, in the simulator's
// event order (completions before arrivals at equal times), with the
// simulator's multi-round scheduling after each event.
func replay(s *simSetup, cfg simulator.Config, jobs []*job.Job, res *simulator.Result, tr *tracer) (*replayOut, error) {
	mapper, err := core.NewMapper(cfg.Profiles, core.DefaultWeights())
	if err != nil {
		return nil, err
	}
	disc, err := schedcore.ParseDiscipline(cfg.Discipline)
	if err != nil {
		return nil, err
	}
	clock := schedcore.NewManualClock(0)
	c := schedcore.New(cfg.Policy, cluster.NewState(s.topo), mapper,
		schedcore.WithClock(clock), schedcore.WithQueueDiscipline(disc))
	c.SetPreemption(cfg.EnablePreemption)

	type event struct {
		t      float64
		finish bool
		seq    int
		j      *job.Job
	}
	seq := make(map[string]int, len(jobs))
	evs := make([]event, 0, 2*len(jobs))
	for i, j := range jobs {
		seq[j.ID] = i
		evs = append(evs, event{t: j.Arrival, seq: i, j: j})
	}
	for _, jr := range res.Jobs {
		evs = append(evs, event{t: jr.Finish, finish: true, seq: seq[jr.Job.ID], j: jr.Job})
	}
	sort.Slice(evs, func(a, b int) bool {
		ea, eb := evs[a], evs[b]
		if ea.t != eb.t {
			return ea.t < eb.t
		}
		if ea.finish != eb.finish {
			return ea.finish
		}
		return ea.seq < eb.seq
	})

	out := &replayOut{gpus: make(map[string][]int, len(jobs))}
	root := tr.begin("replay", -1)
	defer tr.end(root)
	for _, e := range evs {
		clock.Set(e.t)
		t0 := time.Now()
		if e.finish {
			sp := tr.begin("schedcore.Release", root)
			err = c.Release(e.j.ID)
			tr.end(sp)
		} else {
			sp := tr.begin("schedcore.Submit", root)
			err = c.Submit(e.j)
			tr.end(sp)
		}
		if err != nil {
			return nil, err
		}
		for rounds := 0; ; rounds++ {
			if rounds > 10_000 {
				return nil, fmt.Errorf("preemption rounds did not converge at t=%g", e.t)
			}
			sp := tr.begin("schedcore.Schedule", root)
			ds := c.Schedule()
			tr.end(sp)
			evicted := false
			for _, d := range ds {
				evicted = evicted || len(d.Evictions) > 0
				if !d.Postponed && d.Placement != nil {
					out.gpus[d.Job.ID] = slices.Clone(d.Placement.GPUs)
				}
			}
			if !evicted {
				break
			}
		}
		if e.finish {
			out.release = append(out.release, time.Since(t0))
		} else {
			out.submit = append(out.submit, time.Since(t0))
		}
	}
	return out, nil
}

// idealTime is a job's solo time under the best allocation of its GPU
// count on the empty fleet, computed here from the performance model.
func idealTime(topo *topology.Topology, j *job.Job) float64 {
	g := min(j.GPUs, topo.NumGPUs())
	return float64(j.Iterations) * perfmodel.IterationTimeMode(j.Model, j.BatchSize, topo, topo.BestAllocation(g), 1, j.Parallelism)
}

// check verifies one round's results against properties of the method.
func (w simWorkload) check(o *outcome, s *simSetup, r *simRound) {
	machineOf := func(g int) int { return s.topo.GPU(g).Machine }
	for k, res := range r.results {
		jobs := s.traces[k]
		want := make(map[string]jobShape, len(jobs))
		for _, j := range jobs {
			want[j.ID] = jobShape{gpus: j.GPUs, singleNode: j.SingleNode}
		}
		seen := make(map[string]int, len(jobs))
		for _, jr := range res.Jobs {
			id := jr.Job.ID
			seen[id]++
			if jr.Start < jr.Job.Arrival {
				o.violate("trace %d: job %s starts at %g before it arrives at %g", k, id, jr.Start, jr.Job.Arrival)
			}
			if !(jr.Finish > jr.Start) {
				o.violate("trace %d: job %s finishes at %g, not after its start %g", k, id, jr.Finish, jr.Start)
			}
			if err := checkSlowdown(id, jr.Finish-jr.Start, idealTime(s.topo, jr.Job)); err != nil {
				o.violate("trace %d: %v", k, err)
			}
			if w.preempt && jr.Job.Priority > 0 && jr.Preemptions > 0 {
				o.violate("trace %d: priority-%d job %s was evicted %d times", k, jr.Job.Priority, id, jr.Preemptions)
			}
		}
		for _, j := range jobs {
			if seen[j.ID] != 1 {
				o.violate("trace %d: job %s finished %d times", k, j.ID, seen[j.ID])
			}
		}
		if len(res.Jobs) != len(jobs) {
			o.violate("trace %d: %d results for %d jobs", k, len(res.Jobs), len(jobs))
		}
		ivs := make([]interval, len(res.Timeline))
		held := map[string]int{}
		for i, iv := range res.Timeline {
			ivs[i] = interval{job: iv.JobID, gpus: iv.GPUs, start: iv.Start, end: iv.Finish}
			held[iv.JobID]++
		}
		for _, j := range jobs {
			if w.preempt && j.Priority > 0 && held[j.ID] > 1 {
				o.violate("trace %d: priority-%d job %s ran in %d intervals", k, j.Priority, j.ID, held[j.ID])
			}
		}
		for _, v := range checkIntervalShape(ivs, want, machineOf) {
			o.violate("trace %d: %s", k, v)
		}
		for _, v := range checkNoOverlap(ivs) {
			o.violate("trace %d: %s", k, v)
		}
	}
}

// sameResult reports whether a run reproduced another's schedule.
func sameResult(a, b *simulator.Result) bool {
	if a.Makespan != b.Makespan || len(a.Jobs) != len(b.Jobs) {
		return false
	}
	for i := range a.Jobs {
		if a.Jobs[i].Finish != b.Jobs[i].Finish || !slices.Equal(a.Jobs[i].GPUs, b.Jobs[i].GPUs) {
			return false
		}
	}
	return true
}

func (w simWorkload) run(o runOpts) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var setupS, buildS, profS, genS []float64
	var s *simSetup
	var spent time.Duration
	for n := 0; moreSetups(n, spent); n++ {
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if s, err = w.setup(o.seed); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
		buildS = append(buildS, s.build.Seconds())
		profS = append(profS, s.profile.Seconds())
		genS = append(genS, s.generate.Seconds())
	}

	// The first round warms the allocation memos and the allocator up
	// and is the reference every later round must reproduce; timing
	// comes from the later rounds, of which there are at least one.
	peak := startHeapPeak()
	start := time.Now()
	first, err := w.round(out, s, o.seed, nil, nil, nil)
	if err != nil {
		peak.stopMB()
		return nil, err
	}
	w.check(out, s, first)
	out.attempted += first.ops
	peak.takeMB()
	var rounds []*simRound
	for len(rounds) == 0 || time.Since(start).Seconds() < o.seconds {
		r, err := w.round(out, s, o.seed, first, nil, peak)
		if err != nil {
			peak.stopMB()
			return nil, err
		}
		out.attempted += r.ops
		rounds = append(rounds, r)
	}
	peak.stopMB()

	if !o.trace {
		var rates, peaks []float64
		var submit, release [][]time.Duration
		for _, r := range rounds {
			peaks = append(peaks, r.peaksMB...)
			for _, d := range r.runTimes {
				rates = append(rates, float64(w.jobs)/d.Seconds())
			}
			submit = append(submit, r.submit...)
			release = append(release, r.release...)
		}
		m := out.metrics
		m["jobs_per_s"] = median(rates)
		m["qos_slowdown"] = pooledMean(first, func(jr simulator.JobResult) (float64, bool) { return jr.SlowdownQoS, true })
		latencyMetrics(m, "submit", submit)
		latencyMetrics(m, "release", release)
		m["setup_s"] = median(setupS)
		m["peak_heap_mb"] = median(peaks)
		return out, nil
	}

	// Traced pass: one more round with spans and a CPU profile.
	var untraced []float64
	for _, r := range rounds {
		untraced = append(untraced, r.wall.Seconds())
	}
	tr := newTracer(time.Now())
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, err := w.round(out, s, o.seed, first, tr, nil)
	spansPath, profPath := tracedOutputs(o)
	cpu, perr := prof.stop(profPath)
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	out.attempted += traced.ops
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, err
	}

	m := out.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["topology.build_s"] = median(buildS)
	m["profile.generate_s"] = median(profS)
	m["workload.generate_s"] = median(genS)
	// Run time and the simulator's own share come from the untraced
	// rounds: a round's Run time minus the time its replay spent in the
	// core (every Submit and Release with the rounds after it).
	var runS, selfS []float64
	for _, r := range rounds {
		var core time.Duration
		for k := range r.submit {
			core += sum(r.submit[k]) + sum(r.release[k])
		}
		runS = append(runS, r.runWall.Seconds())
		selfS = append(selfS, (r.runWall - core).Seconds())
	}
	m["simulator.run_s"] = median(runS)
	m["simulator.self_s"] = median(selfS)
	m["simulator.alloc_mb"] = float64(traced.allocBytes) / float64(len(s.traces)) / (1 << 20)
	var makespan float64
	var st schedcore.Stats
	for _, res := range first.results {
		makespan += res.Makespan / float64(len(first.results))
		st = addStats(st, res.SchedStats)
	}
	m["simulator.makespan_s"] = makespan
	m["simulator.wait_slowdown"] = pooledMean(first, func(jr simulator.JobResult) (float64, bool) { return jr.SlowdownQoSWait, true })
	m["schedcore.wait_s"] = pooledMean(first, func(jr simulator.JobResult) (float64, bool) { return jr.Wait, true })
	m["schedcore.high_pri_wait_s"] = pooledMean(first, func(jr simulator.JobResult) (float64, bool) { return jr.Wait, jr.Job.Priority > 0 })
	sched := tr.durations("schedcore.Schedule")
	m["schedcore.schedule_calls"] = float64(len(sched))
	m["schedcore.schedule_busy_s"] = sum(sched).Seconds()
	schedUs := durations(sched, time.Microsecond)
	m["schedcore.schedule_p50_us"] = median(schedUs)
	if m["schedcore.schedule_p99_us"], err = tailPercentile(schedUs, 0.99); err != nil {
		out.violate("Schedule latency: %v", err)
	}
	putSchedStats(m, st)
	putCPU(m, cpu)
	m["trace.overhead"] = traced.wall.Seconds()/median(untraced) - 1
	m["trace.residual_share"] = 1 - covered(tr.spans).Seconds()/traced.wall.Seconds()
	m["trace.spans"] = float64(len(tr.spans))
	return out, nil
}

// pooledMean averages f over every job of every trace it selects.
func pooledMean(r *simRound, f func(simulator.JobResult) (float64, bool)) float64 {
	var total float64
	n := 0
	for _, res := range r.results {
		for _, jr := range res.Jobs {
			if v, ok := f(jr); ok {
				total += v
				n++
			}
		}
	}
	return ratio(total, float64(n))
}

func addStats(a, b schedcore.Stats) schedcore.Stats {
	a.Decisions += b.Decisions
	a.Postponements += b.Postponements
	a.GateSkips += b.GateSkips
	a.WakeSkips += b.WakeSkips
	a.Preemptions += b.Preemptions
	a.Evictions += b.Evictions
	a.PlaceCacheHits += b.PlaceCacheHits
	a.PlaceCacheMisses += b.PlaceCacheMisses
	a.PlaceCacheEvictions += b.PlaceCacheEvictions
	return a
}

// putSchedStats reports the core's own counters.
func putSchedStats(m map[string]float64, st schedcore.Stats) {
	m["schedcore.decisions"] = float64(st.Decisions)
	m["schedcore.postponements"] = float64(st.Postponements)
	m["schedcore.gate_skips"] = float64(st.GateSkips)
	m["schedcore.wake_skips"] = float64(st.WakeSkips)
	m["schedcore.wake_skip_ratio"] = ratio(float64(st.WakeSkips), float64(st.Postponements))
	m["schedcore.preemptions"] = float64(st.Preemptions)
	m["schedcore.evictions"] = float64(st.Evictions)
	m["placecache.hits"] = float64(st.PlaceCacheHits)
	m["placecache.misses"] = float64(st.PlaceCacheMisses)
	m["placecache.hit_ratio"] = ratio(float64(st.PlaceCacheHits), float64(st.PlaceCacheHits+st.PlaceCacheMisses))
	m["placecache.evictions"] = float64(st.PlaceCacheEvictions)
}
