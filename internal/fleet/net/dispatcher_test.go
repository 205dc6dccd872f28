package net

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fleet"
)

// TestDispatcher drives the work queue both transports share directly —
// next, settle, lose, abandon — with no sockets or processes.
func TestDispatcher(t *testing.T) {
	errLost := errors.New("connection lost")
	specs := func(idx ...int) []fleet.JobSpec {
		out := make([]fleet.JobSpec, len(idx))
		for i, x := range idx {
			out[i].Index = x
		}
		return out
	}
	newD := func(t *testing.T, hosts []string, hedgeAfter time.Duration, items ...*itemState) *dispatcher {
		t.Helper()
		r := &Runner{Hosts: hosts, HedgeAfter: hedgeAfter}
		d := newDispatcher(items, r, newStatsTracker(hosts))
		t.Cleanup(d.cancel) // stops the all-dead timer of unfinished runs
		return d
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"lost hedge sibling stays silent while the primary is live", func(t *testing.T) {
			it := &itemState{specs: specs(0, 1), owner: -1}
			d := newD(t, []string{"a", "b"}, time.Nanosecond, it)
			primary := d.next(0, nil)
			if primary == nil || primary.hedge {
				t.Fatalf("host 0 should claim the item, got %+v", primary)
			}
			time.Sleep(time.Millisecond)
			hedge := d.next(1, nil)
			if hedge == nil || !hedge.hedge || hedge.item != it {
				t.Fatalf("idle host 1 should hedge the overdue item, got %+v", hedge)
			}
			if requeue, exhausted, _ := d.lose(hedge, specs(1), 3, errLost); requeue || exhausted {
				t.Fatalf("losing the hedge requeued=%v exhausted=%v; the primary still owns the item", requeue, exhausted)
			}
			if len(d.pending) != 0 || it.done || it.live != 1 {
				t.Fatalf("after hedge loss: pending=%d done=%v live=%d", len(d.pending), it.done, it.live)
			}
			d.settle(primary, time.Millisecond, true)
			if !d.runOver() {
				t.Fatal("settling the primary should end the run")
			}
			if got := d.tk.snapshot(); got.Hedges != 1 || got.HedgeWins != 0 || got.Hosts[0].ItemsCompleted != 1 {
				t.Fatalf("stats %+v: want one hedge, no win, the item credited to host 0", got)
			}
		}},
		{"retries run out after maxRetries", func(t *testing.T) {
			const maxRetries = 2
			it := &itemState{specs: specs(0), owner: -1}
			d := newD(t, []string{"a"}, -1, it)
			for attempt := 1; ; attempt++ {
				at := d.next(0, nil)
				if at == nil {
					t.Fatalf("attempt %d: item not redispatched", attempt)
				}
				requeue, exhausted, n := d.lose(at, at.specs, maxRetries, errLost)
				if n != attempt {
					t.Fatalf("attempt %d: lose counted %d", attempt, n)
				}
				if attempt <= maxRetries {
					if !requeue || exhausted {
						t.Fatalf("attempt %d: requeue=%v exhausted=%v, want a retry", attempt, requeue, exhausted)
					}
					continue
				}
				if requeue || !exhausted {
					t.Fatalf("attempt %d: requeue=%v exhausted=%v, want exhaustion", attempt, requeue, exhausted)
				}
				break
			}
			if !d.runOver() || d.next(0, nil) != nil {
				t.Fatal("an exhausted item should end the run")
			}
		}},
		{"burned host is eligible only when it is the only one connected", func(t *testing.T) {
			it := &itemState{specs: specs(0), owner: -1, badHosts: map[int]struct{}{0: {}}}
			d := newD(t, []string{"a", "b"}, -1, it)
			d.setConnected(0, true)
			d.mu.Lock()
			alone := d.eligibleLocked(it, 0)
			d.mu.Unlock()
			if !alone {
				t.Fatal("the only connected host must get the item back rather than starve it")
			}
			d.setConnected(1, true)
			d.mu.Lock()
			burned, fresh := d.eligibleLocked(it, 0), d.eligibleLocked(it, 1)
			d.mu.Unlock()
			if burned || !fresh {
				t.Fatalf("with a fresh host up: burned eligible=%v fresh eligible=%v", burned, fresh)
			}
			if at := d.next(1, nil); at == nil || at.item != it {
				t.Fatalf("fresh host should claim the item, got %+v", at)
			}
		}},
		{"fully reported lost attempt completes without requeue", func(t *testing.T) {
			it := &itemState{specs: specs(0, 1), owner: -1}
			d := newD(t, []string{"a"}, -1, it)
			at := d.next(0, nil)
			if requeue, exhausted, n := d.lose(at, nil, 3, errLost); requeue || exhausted || n != 0 {
				t.Fatalf("lose = %v, %v, %d; want a silent completion", requeue, exhausted, n)
			}
			if !it.done || len(d.pending) != 0 || !d.runOver() {
				t.Fatalf("item done=%v pending=%d over=%v", it.done, len(d.pending), d.runOver())
			}
		}},
		{"abandon after cancel releases the attempt", func(t *testing.T) {
			it := &itemState{specs: specs(0), owner: -1}
			d := newD(t, []string{"a"}, -1, it)
			at := d.next(0, nil)
			d.cancel()
			d.abandon(at)
			if it.live != 0 || !d.runOver() || d.next(0, nil) != nil {
				t.Fatalf("after cancel+abandon: live=%d over=%v", it.live, d.runOver())
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestPlanItems pins the partition and pipe-worker sizing: "exec:" workers
// never oversubscribe the machine, never outnumber the work items, and
// with only pipe hosts each item is at least one worker pool wide.
func TestPlanItems(t *testing.T) {
	for _, tc := range []struct {
		name                                       string
		n, hosts, pipes, shardSize, workers, cores int
		want                                       itemPlan
	}{
		// Table 1 (26 cells) on 16 cores: 8-job items for 8-worker pools.
		{"table1 2 pipes 16 cores", 26, 2, 2, 0, 0, 16, itemPlan{size: 8, pipes: 2, pipeWorkers: 8}},
		{"table1 4 pipes 16 cores", 26, 4, 4, 0, 0, 16, itemPlan{size: 4, pipes: 4, pipeWorkers: 4}},
		{"table1 2 pipes 2 cores", 26, 2, 2, 0, 0, 2, itemPlan{size: 4, pipes: 2, pipeWorkers: 1}},
		// More processes than jobs (NewShardRunner(0) on a big machine):
		// only as many as there are items, each with the freed cores.
		{"pipes capped at jobs", 3, 16, 16, 0, 0, 16, itemPlan{size: 6, pipes: 1, pipeWorkers: 16}},
		{"pipes capped at items", 10, 4, 4, 0, 0, 16, itemPlan{size: 4, pipes: 3, pipeWorkers: 6}},
		{"explicit workers kept", 26, 2, 2, 0, 3, 16, itemPlan{size: 4, pipes: 2, pipeWorkers: 3}},
		{"explicit shard size kept", 26, 2, 2, 2, 0, 16, itemPlan{size: 2, pipes: 2, pipeWorkers: 8}},
		// Mixed inventory: pipes split the cores among themselves; items
		// keep the per-host default, since TCP daemons share the queue.
		{"mixed inventory", 26, 3, 2, 0, 0, 16, itemPlan{size: 3, pipes: 2, pipeWorkers: 8}},
		{"tcp only", 26, 2, 0, 0, 0, 16, itemPlan{size: 4, pipes: 0, pipeWorkers: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := planItems(tc.n, tc.hosts, tc.pipes, tc.shardSize, tc.workers, tc.cores)
			if got != tc.want {
				t.Fatalf("planItems = %+v, want %+v", got, tc.want)
			}
		})
	}
}
