package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"gputopo/internal/schedcore"
	"gputopo/internal/serve"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
	"gputopo/internal/sweep"
)

// The recovery probe checks crash recovery of the sharded server on
// fixed inputs that do not depend on the seed: two domains of one Minsky
// machine each, and 4-GPU jobs, so that each job fills a machine.
//
// Phase A kills the server before any periodic snapshot and reopens the
// logs reopenReps times under the timer; the state recovered must equal
// the state read before the kill.
//
// Phase B goes on until domain 0 has written a periodic snapshot while
// two jobs waited in its queue, submits one more job, releases the
// running one, and kills the server again. Reopening these logs fails
// today: the snapshot restores the waiting jobs as never examined, so
// the first replayed round emits postponement decisions for them that
// the live round, whose wake-up index had parked them, did not; every
// later decision's sequence number is shifted, and replay stops with
// "replay diverged". The phase counts that reopen as a failed operation
// on every run. Should the reopen succeed, its state is checked like
// phase A's.
const (
	probeTopo = "minsky:2/domains[hash:2]"
	// probeSnapshotEvery places domain 0's first periodic snapshot right
	// after the second queued submission: its log then holds the first
	// job's submit, round and place records, phase A's reopens add none,
	// and each queued submission adds a submit and a round record.
	probeSnapshotEvery = 7
)

// probeResult is what the probe measured.
type probeResult struct {
	reopen   []time.Duration // phase A's reopens
	replayed int             // records phase A's reopen replayed
}

func (w serveWorkload) recoveryProbe(o *outcome, dir string, hc *http.Client) (*probeResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spec, err := sweep.ParseTopologyArg(probeTopo)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Spec: spec, Policy: schedcore.TopoAwareP, LogPath: filepath.Join(dir, "events.log"),
		FsyncEvery: serveFsyncEvery, SnapshotEvery: probeSnapshotEvery,
	}
	srv, err := startServer(cfg, hc)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	cl := client.New(srv.url, client.WithHTTPClient(hc))
	submit := func(id, want string) {
		o.attempted++
		resp, err := cl.SubmitJob(ctx, serveapi.JobRequest{ID: id, Model: "AlexNet", BatchSize: 4, GPUs: 4})
		if err != nil {
			o.failed++
			o.violate("probe: submit %s: %v", id, err)
			return
		}
		if resp.Status != want {
			o.violate("probe: submit %s answered %q, want %q", id, resp.Status, want)
		}
	}
	state := func() *serveapi.StateResponse {
		st, err := cl.State(ctx)
		if err != nil {
			o.violate("probe: state: %v", err)
			return nil
		}
		return st
	}

	// Phase A: two jobs fill both machines; kill and reopen.
	submit("A", "placed")
	submit("A2", "placed")
	before := state()
	if before == nil || before.Log == nil || before.Log.Snapshots != 0 {
		o.violate("probe: phase A's logs hold a periodic snapshot before the kill")
	}
	pr := &probeResult{}
	for i := 0; i < w.reopenReps; i++ {
		if err := srv.stop(false); err != nil {
			return nil, err
		}
		o.attempted++
		t0 := time.Now()
		if srv, err = startServer(cfg, hc); err != nil {
			return nil, fmt.Errorf("probe: reopen before any snapshot: %w", err)
		}
		pr.reopen = append(pr.reopen, time.Since(t0))
		pr.replayed = srv.ms.Replayed()
	}
	cl = client.New(srv.url, client.WithHTTPClient(hc))
	checkRecovered(o, "phase A", before, state())

	// Phase B: two jobs queue in domain 0, which then snapshots; one
	// more queues; releasing A lets B place. Kill and reopen.
	submit("B", "queued")
	submit("B2", "queued")
	if st := state(); st == nil || len(st.Domains) == 0 || st.Domains[0].Log == nil || st.Domains[0].Log.Snapshots != 1 {
		o.violate("probe: domain 0 did not write exactly one periodic snapshot with B and B2 queued")
	}
	submit("C", "queued")
	o.attempted++
	if resp, err := cl.ReleaseJob(ctx, "A"); err != nil {
		o.failed++
		o.violate("probe: delete A: %v", err)
	} else if resp.Status != "released" || len(resp.Unblocked) != 1 || resp.Unblocked[0] != "B" {
		o.violate("probe: delete A answered %q unblocking %v, want released unblocking [B]", resp.Status, resp.Unblocked)
	}
	before = state()
	if err := srv.stop(false); err != nil {
		return nil, err
	}
	o.attempted++
	if srv, err = startServer(cfg, hc); err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "topoperf: probe: reopen after a periodic snapshot failed (known fault): %v\n", err)
		return pr, nil
	}
	cl = client.New(srv.url, client.WithHTTPClient(hc))
	checkRecovered(o, "phase B", before, state())
	return pr, srv.stop(false)
}

// checkRecovered compares the state recovered after a kill with the
// state read just before it, volatile fields aside.
func checkRecovered(o *outcome, phase string, before, after *serveapi.StateResponse) {
	if before == nil || after == nil {
		return
	}
	b, a := *before, *after
	b.ClearVolatile()
	a.ClearVolatile()
	if !reflect.DeepEqual(b, a) {
		o.violate("probe: %s: state recovered after the kill differs from the state before it", phase)
	}
}
