package fleet

import (
	"context"
	"errors"
	"testing"

	"repro/internal/workload"
)

// TestJobDeadlineExpires pins Job.DeadlineSec: a job whose wall-clock
// budget is vanishingly small is cancelled with DeadlineExceeded and
// returns a partial result, while an undeadlined sibling in the same batch
// completes normally.
func TestJobDeadlineExpires(t *testing.T) {
	jobs := []Job{
		{Workload: workload.ByName("game", 1), DeadlineSec: 1e-9},
		{Workload: workload.ByName("game", 2)},
	}
	results := New(Config{Workers: 2}).Run(context.Background(), jobs)
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("deadlined job err = %v, want DeadlineExceeded", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("undeadlined job failed: %v", results[1].Err)
	}
	if results[1].Result == nil || results[1].Result.DurSec <= 0 {
		t.Fatal("undeadlined job produced no result")
	}
}

// TestJobDeadlineGenerousKeepsPhysics pins the other side of the bound:
// far from expiry, a deadlined job's results are identical to an
// undeadlined run (the timeout context changes nothing but the bound).
func TestJobDeadlineGenerousKeepsPhysics(t *testing.T) {
	relaxed := []Job{{Workload: workload.ByName("game", 7), DeadlineSec: 3600}}
	plain := []Job{{Workload: workload.ByName("game", 7)}}
	rr := New(Config{Workers: 1}).Run(context.Background(), relaxed)
	rp := New(Config{Workers: 1}).Run(context.Background(), plain)
	if rr[0].Err != nil || rp[0].Err != nil {
		t.Fatalf("errs: %v / %v", rr[0].Err, rp[0].Err)
	}
	if rr[0].Result.MaxSkinC != rp[0].Result.MaxSkinC || rr[0].Result.EnergyJ != rp[0].Result.EnergyJ {
		t.Fatal("a generous deadline changed the physics")
	}
}
