package fleet

import (
	"context"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/sink"
	"repro/internal/workload"
)

// cancelSink cancels a context after n accepted samples — a deterministic
// mid-run cancellation trigger.
type cancelSink struct {
	mu     sync.Mutex
	left   int
	cancel context.CancelFunc
}

func (c *cancelSink) Accept(sink.JobID, device.Sample) {
	c.mu.Lock()
	c.left--
	if c.left == 0 {
		c.cancel()
	}
	c.mu.Unlock()
}
func (c *cancelSink) Close() error { return nil }

// TestLocalRunnerCancelMidRun cancels while jobs are executing (triggered
// from the telemetry stream, so at least one run is provably mid-flight):
// every unfinished job must carry the context error, and the runs the
// cancellation interrupted must return their partial results.
func TestLocalRunnerCancelMidRun(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Workload: workload.ByName("antutu-cpu-90min", uint64(i))}
	}
	full := jobs[0].Workload.Duration()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := LocalRunner{}.Run(ctx,
		Config{Workers: 2, Seed: 1, Sink: &cancelSink{left: 40, cancel: cancel}}, jobs)
	partial := 0
	for i, r := range results {
		if r.Err == nil {
			continue
		}
		if r.Err != context.Canceled {
			t.Fatalf("job %d failed with %v, want context.Canceled", i, r.Err)
		}
		if r.Result != nil {
			if r.Result.DurSec >= full {
				t.Fatalf("job %d partial result covers %g s of a %g s workload", i, r.Result.DurSec, full)
			}
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("cancellation interrupted no run with a partial result")
	}
}
