package net_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/workload"
)

// TestMain lets the test binary double as a pipe worker: an "exec:" host
// re-executes the current binary with the worker environment set, and
// WorkerMain serves the coordinator over stdio instead of running tests.
func TestMain(m *testing.M) {
	fleetnet.WorkerMain()
	os.Exit(m.Run())
}

// pipeRunner is a runner over n worker subprocesses of this test binary.
func pipeRunner(n int) *fleetnet.Runner {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = "exec:"
	}
	return fleetnet.New(hosts)
}

// matchLocal fails the test unless every job in got equals the local
// reference: metadata, aggregates and telemetry fingerprint.
func matchLocal(t *testing.T, label string, ref, got []fleet.JobResult, refTally, gotTally *tally) {
	t.Helper()
	if err := fleet.FirstError(got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := range ref {
		a, b := ref[i], got[i]
		if b.Index != a.Index || b.Name != a.Name || b.SeedUsed != a.SeedUsed {
			t.Fatalf("%s job %d: metadata diverged: %+v vs %+v", label, i, b, a)
		}
		if b.Result.EnergyJ != a.Result.EnergyJ || b.Result.MaxSkinC != a.Result.MaxSkinC ||
			b.Result.AvgFreqMHz != a.Result.AvgFreqMHz || b.Result.WorkDone != a.Result.WorkDone {
			t.Fatalf("%s job %d: aggregates diverged", label, i)
		}
		if gotTally.counts[i] != refTally.counts[i] || gotTally.sums[i] != refTally.sums[i] {
			t.Fatalf("%s job %d: telemetry diverged: %d/%v samples vs local %d/%v",
				label, i, gotTally.counts[i], gotTally.sums[i], refTally.counts[i], refTally.sums[i])
		}
	}
}

// runTallied runs n spec jobs on r with a telemetry tally attached.
func runTallied(r fleet.Runner, cfg fleet.Config, n int) ([]fleet.JobResult, *tally) {
	tl := newTally()
	cfg.Sink = tl.sink()
	return r.Run(context.Background(), cfg, specJobs(n, true)), tl
}

// TestPipeRunnerMatchesLocal is the pipe transport's determinism contract:
// the same batch through 2 or 4 worker processes must be byte-identical to
// the in-process pool — results, seeds, and the telemetry stream.
func TestPipeRunnerMatchesLocal(t *testing.T) {
	const n = 6
	cfg := fleet.Config{Workers: 2, Seed: 42}
	ref, refTally := runTallied(fleet.LocalRunner{}, cfg, n)
	if err := fleet.FirstError(ref); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4} {
		r := pipeRunner(procs)
		got, gotTally := runTallied(r, cfg, n)
		matchLocal(t, fmt.Sprintf("procs=%d", procs), ref, got, refTally, gotTally)
		if hs := r.Stats().Hosts; len(hs) != procs {
			t.Fatalf("procs=%d: %d stats rows, want one per process", procs, len(hs))
		}
	}
}

// TestPipeRunnerProgress: OnProgress and OnResult fire once per job across
// all processes, serialized, ending at (total, total).
func TestPipeRunnerProgress(t *testing.T) {
	jobs := specJobs(5, true)
	var dones []int
	var names []string
	cfg := fleet.Config{
		Workers:    1,
		Seed:       7,
		OnProgress: func(done, total int) { dones = append(dones, done*100+total) },
		OnResult:   func(r fleet.JobResult) { names = append(names, r.Name) },
	}
	results := pipeRunner(2).Run(context.Background(), cfg, jobs)
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(jobs) || len(names) != len(jobs) {
		t.Fatalf("progress %d / results %d callbacks, want %d", len(dones), len(names), len(jobs))
	}
	for i, d := range dones {
		if d != (i+1)*100+len(jobs) {
			t.Fatalf("progress call %d = %d, want done=%d total=%d", i, d, i+1, len(jobs))
		}
	}
}

// TestPipeRunnerSpeclessJobs: jobs without a serializable spec fail alone
// with a descriptive error while spec'd neighbors complete.
func TestPipeRunnerSpeclessJobs(t *testing.T) {
	jobs := specJobs(4, true)
	jobs[2].Spec = nil
	results := pipeRunner(2).Run(context.Background(), fleet.Config{Workers: 1, Seed: 1}, jobs)
	for i, r := range results {
		if i == 2 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "no serializable spec") {
				t.Fatalf("spec-less job err = %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d should have survived: %v", i, r.Err)
		}
	}
}

// TestPipeRunnerWorkerCrashRetries: a worker process dying mid-shard is a
// lost host like any other. The jobs it reported keep their results, its
// unreported jobs are retried on a respawned process, and the run ends
// with every job byte-identical to the in-process pool.
func TestPipeRunnerWorkerCrashRetries(t *testing.T) {
	const n = 6
	cfg := fleet.Config{Workers: 1, Seed: 42}
	ref, refTally := runTallied(fleet.LocalRunner{}, cfg, n)
	if err := fleet.FirstError(ref); err != nil {
		t.Fatal(err)
	}
	// The fault injector kills a worker right after it reports global job
	// 0. One host with 3-job items and Workers=1 makes the crash land
	// mid-item (jobs 1-2 unreported), and forces the retry onto a
	// respawned process rather than a sibling host.
	t.Setenv("USTA_SHARD_CRASH_ON_INDEX", "0")
	r := pipeRunner(1)
	r.ShardSize = 3
	var logMu sync.Mutex
	var logs strings.Builder
	r.Logf = func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&logs, format+"\n", args...)
		logMu.Unlock()
	}
	got, gotTally := runTallied(r, cfg, n)
	matchLocal(t, "crash", ref, got, refTally, gotTally)
	if h := r.Stats().Hosts[0]; h.Redials < 1 || h.ConnectAttempts < 2 {
		t.Fatalf("stats %+v: want the crashed worker respawned (a redial)", h)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(logs.String(), "exit status 3") {
		t.Fatalf("the loss should be logged with the worker's exit status:\n%s", logs.String())
	}
}

// TestPipeRunnerCancellation: a cancelled context tears the workers down
// and marks every unfinished job with the context error, matching the
// local runner's semantics (finished jobs keep their results).
func TestPipeRunnerCancellation(t *testing.T) {
	longJobs := func(n int) []fleet.Job {
		jobs := make([]fleet.Job, n)
		for i := range jobs {
			spec := &fleet.JobSpec{
				Workload:  fleet.WorkloadRef{Name: "skype", Seed: 1},
				DurSec:    1800,
				TraceFree: true,
			}
			jobs[i] = fleet.Job{
				Workload:  workload.ByName(spec.Workload.Name, spec.Workload.Seed),
				DurSec:    spec.DurSec,
				TraceFree: true,
				Spec:      spec,
			}
		}
		return jobs
	}

	// Pre-cancelled context: nothing runs, every job carries the context
	// error — deterministic.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range pipeRunner(2).Run(ctx, fleet.Config{Workers: 1, Seed: 1}, longJobs(4)) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("pre-cancelled: job %d err = %v, want context.Canceled", i, r.Err)
		}
	}

	// Mid-run cancellation: the simulator may finish some jobs before the
	// cancel fires (it runs far faster than wall-clock), so assert the
	// invariant, not the count — every job either completed cleanly or was
	// cancelled, and the run returned promptly after the cancel.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	results := pipeRunner(2).Run(ctx2, fleet.Config{Workers: 1, Seed: 1}, longJobs(400))
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v after cancellation; workers were not torn down", elapsed)
	}
	cancelled := 0
	for i, r := range results {
		switch {
		case r.Err == nil && r.Result != nil:
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("job %d: unexpected outcome err=%v result=%v", i, r.Err, r.Result != nil)
		}
	}
	if cancelled == 0 {
		t.Fatal("400 long jobs all finished before a 30ms cancel; expected at least one cancellation")
	}
}

// TestPipeRunnerBadBinary: a worker binary that does not exist fails every
// job at once with an error naming it — no redial loop, no wait for the
// all-dead deadline.
func TestPipeRunnerBadBinary(t *testing.T) {
	const path = "/nonexistent/ustaworker"
	start := time.Now()
	results := fleetnet.New([]string{"exec:" + path}).Run(context.Background(), fleet.Config{Seed: 1}, specJobs(2, true))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bad binary took %v to fail", elapsed)
	}
	for i, res := range results {
		if res.Err == nil || !strings.Contains(res.Err.Error(), path) {
			t.Fatalf("job %d err = %v, want an error naming %s", i, res.Err, path)
		}
	}
}

// TestPipeRunnerSpawnsPerItem: pipe workers never outnumber the work
// items, so a batch smaller than the inventory spawns fewer processes.
func TestPipeRunnerSpawnsPerItem(t *testing.T) {
	r := pipeRunner(4)
	if err := fleet.FirstError(r.Run(context.Background(), fleet.Config{Seed: 1}, specJobs(1, true))); err != nil {
		t.Fatal(err)
	}
	spawned := 0
	for _, h := range r.Stats().Hosts {
		if h.ConnectAttempts > 0 {
			spawned++
		}
	}
	if spawned != 1 {
		t.Fatalf("one job spawned %d workers, want 1: %+v", spawned, r.Stats().Hosts)
	}
}
