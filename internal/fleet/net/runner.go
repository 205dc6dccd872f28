package net

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	stdnet "net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
)

// DefaultHeartbeatTimeout is how long the coordinator tolerates a silent
// worker connection before declaring the connection lost. Sample, result
// and heartbeat frames all refresh it, so only a worker that stopped
// making progress and stopped pulsing trips it.
const DefaultHeartbeatTimeout = 5 * DefaultHeartbeatInterval

// DefaultDialTimeout bounds connection establishment plus the hello
// handshake per worker connection.
const DefaultDialTimeout = 5 * time.Second

// defaultMaxRetries is how many times a work item survives worker loss
// before its remaining jobs fail.
const defaultMaxRetries = 3

// Recovery defaults. A host is never retired by a single transport
// failure: its supervisor redials under exponential backoff with seeded
// jitter, opens a circuit breaker after BreakerThreshold consecutive
// failures, and probes half-open after a growing cooldown.
const (
	DefaultBackoffBase      = 100 * time.Millisecond
	DefaultBackoffMax       = 5 * time.Second
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2 * time.Second
	// DefaultAllDeadDeadline is how long the run tolerates zero connected
	// hosts (everything down or cooling off) before giving up on the
	// network: remaining jobs fail, or — with FallbackLocal — run on the
	// in-process LocalRunner.
	DefaultAllDeadDeadline = 30 * time.Second
	// defaultHedgeFloor is the minimum in-flight age before an adaptive
	// hedge fires, so sub-second shards never double-dispatch.
	defaultHedgeFloor = 500 * time.Millisecond
)

// errNoSpec: only serializable jobs can cross a process boundary.
var errNoSpec = errors.New("net: job has no serializable spec (Job.Spec); only scenario-expanded or spec-carrying jobs can run on a remote runner")

// Runner is the remote fleet.Runner: it partitions jobs into work items,
// dispatches them to worker processes — TCP daemons or spawned pipe
// workers, per Hosts entry — and merges the streamed frames back into
// submission order. Seeds are resolved coordinator-side through
// fleet.EffectiveSeed before dispatch, so a distributed run is
// byte-identical to LocalRunner — including after a worker dies mid-shard
// and its unreported jobs are retried on a surviving host (telemetry for
// a retried job is buffered per attempt and flushed only when its result
// arrives, so a half-streamed attempt leaves no trace).
//
// The runner is self-healing: each host runs under a supervisor that
// redials after transport loss with exponential backoff and seeded
// jitter, trips a circuit breaker (closed → open → half-open probe) after
// consecutive failures, and re-admits the host mid-run once it recovers.
// Idle capacity hedges long-running shards onto a second host with
// first-reporter-wins dedup. When no host stays connected past
// AllDeadDeadline the remaining jobs fail — or, with FallbackLocal, run
// on the in-process LocalRunner with the same pinned seeds. Per-host
// state is observable through Stats. The zero value is not useful; set
// Hosts.
type Runner struct {
	// Hosts is the static worker inventory. Each entry is a TCP daemon
	// ("host:port") or one spawned worker process over stdin/stdout pipes
	// ("exec:" re-executes the current binary, which must call WorkerMain
	// first thing in main; "exec:<path>" runs a built ustaworker from the
	// same build). Entries are distinct hosts even when equal: n "exec:"
	// entries are n processes with their own breakers and stats rows. Pipe
	// workers share this machine, so a run spawns at most one per work
	// item, and when it leaves Config.Workers unset each of the k spawned
	// processes gets ⌈GOMAXPROCS/k⌉ workers, so the machine is not
	// oversubscribed.
	Hosts []string
	// Predictor backs "usta" job specs in the workers; serialized once per
	// run and shipped inside every shard request.
	Predictor *core.Predictor
	// ShardSize is the number of jobs per dispatch unit (<= 0: the batch is
	// split into about four items per host, so one slow shard cannot strand
	// the run behind it; with only "exec:" hosts an item is at least one
	// worker pool wide).
	ShardSize int
	// MaxRetries is how many times a work item is re-dispatched after
	// worker loss before its unreported jobs fail (<= 0: 3).
	MaxRetries int
	// HeartbeatTimeout is the silent-connection budget before a connection
	// is declared lost (<= 0: DefaultHeartbeatTimeout). Write deadlines on
	// control frames derive from it too.
	HeartbeatTimeout time.Duration
	// DialTimeout bounds dial + hello handshake (<= 0: DefaultDialTimeout).
	DialTimeout time.Duration
	// BackoffBase is the first redial delay after a host failure
	// (<= 0: DefaultBackoffBase). Doubles per consecutive failure up to
	// BackoffMax, plus seeded jitter.
	BackoffBase time.Duration
	// BackoffMax caps the redial backoff (<= 0: DefaultBackoffMax).
	BackoffMax time.Duration
	// BreakerThreshold is how many consecutive failures open a host's
	// circuit breaker (<= 0: DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is the first open-breaker cooldown before a
	// half-open probe (<= 0: DefaultBreakerCooldown). Doubles while the
	// probe keeps failing.
	BreakerCooldown time.Duration
	// AllDeadDeadline is how long the run tolerates zero connected hosts
	// before declaring the fleet down (<= 0: DefaultAllDeadDeadline).
	AllDeadDeadline time.Duration
	// FallbackLocal, when set, runs the remaining jobs on the in-process
	// LocalRunner instead of failing them once the fleet is declared down.
	// Seeds were resolved before dispatch, so fallback output is
	// byte-identical to what the workers would have produced.
	FallbackLocal bool
	// HedgeAfter tunes speculative re-dispatch of stuck shards: 0 hedges
	// adaptively once an item has been in flight 3× the observed p95 item
	// duration (500 ms floor, needs 4 completed items); a positive value
	// is an explicit threshold; negative disables hedging.
	HedgeAfter time.Duration
	// Logf, when set, receives one line per host-level event (connect,
	// loss, backoff, breaker transition, retry, hedge). Nil is silent.
	Logf func(format string, args ...any)

	// stats holds the live *statsTracker of the most recent Run; read via
	// Stats. (atomic.Value is copy-safe here: JobServer clones the Runner
	// per job and each clone tracks its own run.)
	stats atomic.Value

	// statsDst, when non-nil, is the cell Run publishes its tracker to
	// instead of the receiver's own — set by PublishStatsTo on throwaway
	// copies so the original keeps observing the run.
	statsDst *atomic.Value
}

// New creates a remote runner over the given host inventory (see Hosts).
func New(hosts []string) *Runner { return &Runner{Hosts: hosts} }

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *Runner) maxRetries() int {
	if r.MaxRetries > 0 {
		return r.MaxRetries
	}
	return defaultMaxRetries
}

func (r *Runner) hbTimeout() time.Duration {
	if r.HeartbeatTimeout > 0 {
		return r.HeartbeatTimeout
	}
	return DefaultHeartbeatTimeout
}

func (r *Runner) backoffBase() time.Duration {
	if r.BackoffBase > 0 {
		return r.BackoffBase
	}
	return DefaultBackoffBase
}

func (r *Runner) backoffMax() time.Duration {
	if r.BackoffMax > 0 {
		return r.BackoffMax
	}
	return DefaultBackoffMax
}

func (r *Runner) breakerThreshold() int {
	if r.BreakerThreshold > 0 {
		return r.BreakerThreshold
	}
	return DefaultBreakerThreshold
}

func (r *Runner) breakerCooldown() time.Duration {
	if r.BreakerCooldown > 0 {
		return r.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

func (r *Runner) allDeadDeadline() time.Duration {
	if r.AllDeadDeadline > 0 {
		return r.AllDeadDeadline
	}
	return DefaultAllDeadDeadline
}

// writeTimeoutFor derives the control-frame write deadline from the
// heartbeat timeout: one heartbeat interval's worth, floored so a tiny
// test timeout cannot make writes fail spuriously.
func writeTimeoutFor(hb time.Duration) time.Duration {
	wt := hb / 5
	if wt < 50*time.Millisecond {
		wt = 50 * time.Millisecond
	}
	return wt
}

// jitter returns a seeded random delay in [0, base/2]; jr is owned by one
// supervisor goroutine.
func jitter(jr *rand.Rand, base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	return time.Duration(jr.Int63n(int64(base)/2 + 1))
}

// host is one inventory entry resolved for a run: its position (the key
// of every per-host record), its address for logs and stats, and the
// worker binary of a pipe host ("" for TCP).
type host struct {
	idx  int
	addr string
	exe  string
}

func hashAddr(addr string) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return int64(h.Sum64())
}

// itemState is one dispatch unit's lifecycle record: the unreported specs
// it still owes, its retry budget, and the in-flight attempt accounting
// that makes hedging and requeueing race-free.
type itemState struct {
	specs    []fleet.JobSpec
	attempts int              // failed dispatches consumed
	live     int              // in-flight attempts (primary + hedge)
	done     bool             // completed or permanently failed
	hedged   bool             // a hedge is (or was) riding this flight
	owner    int              // host index running the primary attempt
	started  time.Time        // when the current flight began
	badHosts map[int]struct{} // host indices that failed this item
}

// attempt is one dispatch of an item to one host. It doubles as the
// telemetry-buffer key, so a lost attempt's half-streamed samples can be
// dropped without touching a live sibling's.
type attempt struct {
	item  *itemState
	specs []fleet.JobSpec // snapshot of item.specs at claim time
	host  int
	hedge bool
}

// dispatcher is the coordinator's work queue: host slots pull items,
// failed items come back for retry, idle slots hedge overdue flights, and
// an all-dead timer bounds how long the run waits for any host to come
// back. The run is over exactly when the queue and the in-flight set are
// both empty, or the run is cancelled, or the fleet is declared down.
type dispatcher struct {
	mu         sync.Mutex
	cond       *sync.Cond
	pending    []*itemState
	inflight   map[*itemState]struct{}
	connected  map[int]int // host index → live generations (0s removed)
	names      []string    // host addresses, for logs
	cancelled  bool
	fleetDown  bool
	overClosed bool
	over       chan struct{}
	lastErr    error
	durations  []time.Duration // completed item wall times, for the hedge p95
	hedgeAfter time.Duration
	allDead    time.Duration
	deadTimer  *time.Timer
	tk         *statsTracker
	logf       func(string, ...any)
}

func newDispatcher(items []*itemState, r *Runner, tk *statsTracker) *dispatcher {
	d := &dispatcher{
		pending:    items,
		inflight:   make(map[*itemState]struct{}),
		connected:  make(map[int]int),
		names:      r.Hosts,
		over:       make(chan struct{}),
		hedgeAfter: r.HedgeAfter,
		allDead:    r.allDeadDeadline(),
		tk:         tk,
		logf:       r.logf,
	}
	d.cond = sync.NewCond(&d.mu)
	d.mu.Lock()
	d.armAllDeadLocked()
	d.mu.Unlock()
	return d
}

// maybeOverLocked closes the run-over channel when the run's end
// condition holds. Callers hold d.mu.
func (d *dispatcher) maybeOverLocked() {
	if d.overClosed {
		return
	}
	if d.cancelled || d.fleetDown || (len(d.pending) == 0 && len(d.inflight) == 0) {
		d.overClosed = true
		close(d.over)
		if d.deadTimer != nil {
			d.deadTimer.Stop()
		}
	}
}

func (d *dispatcher) runOver() bool {
	select {
	case <-d.over:
		return true
	default:
		return false
	}
}

func (d *dispatcher) isFleetDown() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fleetDown
}

// armAllDeadLocked starts the zero-connected-hosts countdown. Callers
// hold d.mu.
func (d *dispatcher) armAllDeadLocked() {
	if d.overClosed || d.deadTimer != nil {
		return
	}
	d.deadTimer = time.AfterFunc(d.allDead, func() {
		d.mu.Lock()
		if len(d.connected) == 0 && !d.overClosed {
			d.fleetDown = true
			if d.lastErr == nil {
				d.lastErr = errors.New("net: no live worker hosts")
			}
			d.maybeOverLocked()
		}
		d.mu.Unlock()
		d.cond.Broadcast()
	})
}

// setConnected tracks a host generation coming up or down, driving the
// all-dead countdown: armed while nothing is connected, cancelled the
// moment any host (re)connects.
func (d *dispatcher) setConnected(h int, up bool) {
	d.mu.Lock()
	if up {
		d.connected[h]++
		if d.deadTimer != nil {
			d.deadTimer.Stop()
			d.deadTimer = nil
		}
	} else {
		if d.connected[h]--; d.connected[h] <= 0 {
			delete(d.connected, h)
		}
		if len(d.connected) == 0 {
			d.armAllDeadLocked()
		}
	}
	d.mu.Unlock()
	d.cond.Broadcast()
}

// noteErr remembers the most recent host-level error for strand reports.
func (d *dispatcher) noteErr(err error) {
	if err == nil {
		return
	}
	d.mu.Lock()
	d.lastErr = err
	d.mu.Unlock()
}

// eligibleLocked reports whether host h may run it. A host that failed an
// item does not get it again while some other connected host could take
// it — but when nobody else can (single-host inventories, everyone else
// down or equally burned), the item goes back to the same host rather
// than starving.
func (d *dispatcher) eligibleLocked(it *itemState, h int) bool {
	if _, bad := it.badHosts[h]; !bad {
		return true
	}
	for a := range d.connected {
		if a == h {
			continue
		}
		if _, bad := it.badHosts[a]; !bad {
			return false
		}
	}
	return true
}

// hedgeThresholdLocked returns the in-flight age beyond which an idle
// slot may hedge an item, or 0 when hedging is (currently) off.
func (d *dispatcher) hedgeThresholdLocked() time.Duration {
	if d.hedgeAfter < 0 {
		return 0
	}
	if d.hedgeAfter > 0 {
		return d.hedgeAfter
	}
	n := len(d.durations)
	if n < 4 {
		return 0
	}
	s := append([]time.Duration(nil), d.durations...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	th := 3 * s[(n*95)/100]
	if th < defaultHedgeFloor {
		th = defaultHedgeFloor
	}
	return th
}

// next blocks until host h has something to do and claims it: a pending
// item, or — when the queue is empty and another host's flight is
// overdue — a hedge on that flight. Returns nil when the run is over or
// this host's generation has failed.
func (d *dispatcher) next(h int, g *hostGen) *attempt {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.cancelled || d.fleetDown || d.overClosed || (g != nil && g.isDown()) {
			return nil
		}
		if len(d.pending) == 0 && len(d.inflight) == 0 {
			d.maybeOverLocked()
			return nil
		}
		for i, it := range d.pending {
			if !d.eligibleLocked(it, h) {
				continue
			}
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			it.owner = h
			it.started = time.Now()
			it.live = 1
			it.hedged = false
			d.inflight[it] = struct{}{}
			return &attempt{item: it, specs: it.specs, host: h}
		}
		// Nothing claimable; consider hedging an overdue flight.
		if th := d.hedgeThresholdLocked(); th > 0 {
			now := time.Now()
			soonest := time.Duration(-1)
			for it := range d.inflight {
				if it.done || it.hedged || it.owner == h {
					continue
				}
				if _, bad := it.badHosts[h]; bad {
					continue
				}
				wait := th - now.Sub(it.started)
				if wait <= 0 {
					it.hedged = true
					it.live++
					d.tk.hedge()
					if d.logf != nil {
						d.logf("net: host %s: hedging %d-job shard stuck on %s for >%v", d.names[h], len(it.specs), d.names[it.owner], th)
					}
					return &attempt{item: it, specs: it.specs, host: h, hedge: true}
				}
				if soonest < 0 || wait < soonest {
					soonest = wait
				}
			}
			if soonest >= 0 {
				// Re-check when the earliest flight crosses the threshold.
				t := time.AfterFunc(soonest+time.Millisecond, d.cond.Broadcast)
				d.cond.Wait()
				t.Stop()
				continue
			}
		}
		d.cond.Wait()
	}
}

// settle retires an attempt whose stream completed: ok for a full result
// stream, !ok for a deterministic worker-side failure. Idempotent across
// hedged siblings — the first reporter wins.
func (d *dispatcher) settle(at *attempt, dur time.Duration, ok bool) {
	d.mu.Lock()
	it := at.item
	it.live--
	if !it.done {
		it.done = true
		delete(d.inflight, it)
		if ok {
			d.durations = append(d.durations, dur)
			if at.hedge {
				d.tk.hedgeWin()
			}
			d.tk.itemDone(at.host)
		}
	}
	d.maybeOverLocked()
	d.mu.Unlock()
	d.cond.Broadcast()
}

// abandon drops an attempt during run cancellation: accounting only, the
// final sweep owns the job results.
func (d *dispatcher) abandon(at *attempt) {
	d.mu.Lock()
	at.item.live--
	d.mu.Unlock()
	d.cond.Broadcast()
}

// lose records a transport-lost attempt. The item is requeued only by its
// last live attempt: while a hedged sibling is still streaming, the loss
// is silent. Returns whether the caller should log a requeue, whether the
// retry budget is exhausted (the caller fails retry), and the attempt
// count for logging.
func (d *dispatcher) lose(at *attempt, retry []fleet.JobSpec, maxRetries int, err error) (requeue, exhausted bool, attempts int) {
	d.mu.Lock()
	defer func() {
		d.maybeOverLocked()
		d.mu.Unlock()
		d.cond.Broadcast()
	}()
	it := at.item
	it.live--
	if it.badHosts == nil {
		it.badHosts = make(map[int]struct{})
	}
	it.badHosts[at.host] = struct{}{}
	if err != nil {
		d.lastErr = err
	}
	if it.done || it.live > 0 {
		return false, false, it.attempts
	}
	if len(retry) == 0 {
		// Every job was reported before the stream died.
		it.done = true
		delete(d.inflight, it)
		return false, false, it.attempts
	}
	it.attempts++
	it.specs = retry
	delete(d.inflight, it)
	if it.attempts > maxRetries {
		it.done = true
		return false, true, it.attempts
	}
	it.hedged = false
	it.owner = -1
	d.pending = append(d.pending, it)
	return true, false, it.attempts
}

// cancel aborts the run: blocked slots and sleeping supervisors wake and
// exit.
func (d *dispatcher) cancel() {
	d.mu.Lock()
	d.cancelled = true
	d.maybeOverLocked()
	d.mu.Unlock()
	d.cond.Broadcast()
}

// strandErr picks the error stranded jobs are failed with.
func (d *dispatcher) strandErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lastErr != nil {
		return d.lastErr
	}
	return errors.New("net: no live worker hosts")
}

// sleep waits for dur, or until the run is over or ctx cancelled.
func (d *dispatcher) sleep(ctx context.Context, dur time.Duration) {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	case <-d.over:
	}
}

// runState is the merge side of a run: results, received tracking, and
// the per-(job, attempt) telemetry buffers that make retries and hedges
// invisible to the sink — each job's samples reach it exactly once, from
// whichever attempt reported first.
type runState struct {
	mu       sync.Mutex
	results  []fleet.JobResult
	received []bool
	jobs     []fleet.Job
	report   func(fleet.JobResult)
	sink     sink.Sink
	buf      map[int]map[*attempt][]device.Sample
}

// sample buffers one telemetry sample under the attempt that streamed it.
func (st *runState) sample(idx int, at *attempt, s device.Sample) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if idx < 0 || idx >= len(st.received) || st.received[idx] {
		return // late frame from a lost or losing attempt
	}
	m := st.buf[idx]
	if m == nil {
		m = make(map[*attempt][]device.Sample)
		st.buf[idx] = m
	}
	m[at] = append(m[at], s)
}

// result records a job result, flushing the reporting attempt's buffered
// telemetry first. Duplicate results — a lost worker's frame racing its
// replacement, or a hedged sibling finishing second — are dropped, along
// with the loser's buffered samples.
func (st *runState) result(rf *wire.ResultFrame, at *attempt) {
	st.mu.Lock()
	defer st.mu.Unlock()
	idx := rf.Index
	if idx < 0 || idx >= len(st.received) || st.received[idx] {
		return
	}
	if st.sink != nil {
		for _, s := range st.buf[idx][at] {
			st.sink.Accept(sink.JobID(idx), s)
		}
	}
	delete(st.buf, idx)
	st.results[idx] = rf.Decode()
	st.received[idx] = true
	st.report(st.results[idx])
}

// failSpecs marks every unreceived job in specs failed with err.
func (st *runState) failSpecs(specs []fleet.JobSpec, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range specs {
		idx := specs[i].Index
		if st.received[idx] {
			continue
		}
		delete(st.buf, idx)
		st.results[idx] = errResult(idx, &st.jobs[idx], err)
		st.received[idx] = true
		st.report(st.results[idx])
	}
}

// pendingSpecs filters specs down to the jobs still unreceived — what a
// fresh or hedged attempt actually needs to dispatch.
func (st *runState) pendingSpecs(specs []fleet.JobSpec) []fleet.JobSpec {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]fleet.JobSpec, 0, len(specs))
	for i := range specs {
		if !st.received[specs[i].Index] {
			out = append(out, specs[i])
		}
	}
	return out
}

// unreported builds the retry spec set for a lost attempt: the jobs it
// never reported, with its half-streamed telemetry dropped. A live hedged
// sibling's buffers are untouched.
func (st *runState) unreported(at *attempt) []fleet.JobSpec {
	st.mu.Lock()
	defer st.mu.Unlock()
	var retry []fleet.JobSpec
	for i := range at.specs {
		idx := at.specs[i].Index
		if st.received[idx] {
			continue
		}
		if m := st.buf[idx]; m != nil {
			delete(m, at)
		}
		retry = append(retry, at.specs[i])
	}
	return retry
}

// errResult matches the local runner's failed-job shape.
func errResult(i int, job *fleet.Job, err error) fleet.JobResult {
	res := fleet.JobResult{Index: i, Name: job.Name, User: job.User, Err: err}
	if res.Name == "" && job.Workload != nil {
		res.Name = job.Workload.Name()
	}
	return res
}

// Run implements fleet.Runner. See the type comment for the contract.
func (r *Runner) Run(ctx context.Context, cfg fleet.Config, jobs []fleet.Job) []fleet.JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]fleet.JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	report := fleet.ResultReporter(cfg, len(jobs))
	st := &runState{
		results:  results,
		received: make([]bool, len(jobs)),
		jobs:     jobs,
		report:   report,
		sink:     cfg.Sink,
		buf:      make(map[int]map[*attempt][]device.Sample),
	}
	failAll := func(err error) []fleet.JobResult {
		for i := range jobs {
			if !st.received[i] {
				results[i] = errResult(i, &jobs[i], err)
				report(results[i])
			}
		}
		return results
	}
	if len(r.Hosts) == 0 {
		return failAll(errors.New("net: no worker hosts configured"))
	}
	hosts, err := resolveHosts(r.Hosts)
	if err != nil {
		return failAll(err)
	}
	pred, err := wire.EncodePredictor(r.Predictor)
	if err != nil {
		return failAll(err)
	}
	// Seed and index every spec'd job now — determinism must not depend on
	// which host runs it, how many attempts it takes, or whether it ends
	// up on the local fallback. Spec-less jobs cannot cross the wire and
	// fail immediately.
	specs := make([]fleet.JobSpec, 0, len(jobs))
	seedOf := make(map[int]int64, len(jobs))
	for i := range jobs {
		if jobs[i].Spec == nil {
			st.results[i] = errResult(i, &jobs[i], errNoSpec)
			st.received[i] = true
			report(st.results[i])
			continue
		}
		spec := *jobs[i].Spec
		spec.Index = i
		spec.Seed = fleet.EffectiveSeed(cfg.Seed, i, &jobs[i])
		seedOf[i] = spec.Seed
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return results
	}

	pipes := 0
	for _, h := range hosts {
		if h.exe != "" {
			pipes++
		}
	}
	plan := planItems(len(specs), len(hosts), pipes, r.ShardSize, cfg.Workers, fleet.NormalizeWorkers(0))
	size := plan.size
	var items []*itemState
	for start := 0; start < len(specs); start += size {
		end := start + size
		if end > len(specs) {
			end = len(specs)
		}
		items = append(items, &itemState{specs: specs[start:end], owner: -1})
	}
	tracker := newStatsTracker(r.Hosts)
	r.statsCell().Store(tracker)
	d := newDispatcher(items, r, tracker)

	// Cancellation: poke every open connection's read deadline so blocked
	// slots wake immediately, observe ctx, send a best-effort cancel frame
	// and tear down.
	var connMu sync.Mutex
	conns := make(map[stdnet.Conn]struct{})
	trackConn := func(c stdnet.Conn, add bool) {
		connMu.Lock()
		if add {
			conns[c] = struct{}{}
		} else {
			delete(conns, c)
		}
		connMu.Unlock()
	}
	stop := context.AfterFunc(ctx, func() {
		d.cancel()
		connMu.Lock()
		for c := range conns {
			c.SetReadDeadline(time.Now())
		}
		connMu.Unlock()
	})
	defer stop()
	// When the run ends while a stream is still in flight — a hedge's
	// losing sibling, or a worker replaying jobs another host already
	// reported — poke its read deadline so the slot unblocks now instead
	// of waiting out the stream.
	go func() {
		<-d.over
		connMu.Lock()
		for c := range conns {
			c.SetReadDeadline(time.Now())
		}
		connMu.Unlock()
	}()

	req := baseRequest{pred: pred, workers: cfg.Workers, wantSamples: cfg.Sink != nil, event: int(cfg.Event)}
	var wg sync.WaitGroup
	spawned := 0
	for _, h := range hosts {
		hreq := req
		if h.exe != "" {
			// A pipe worker that could never get an item is not spawned.
			if spawned++; spawned > plan.pipes {
				continue
			}
			hreq.workers = plan.pipeWorkers
		}
		wg.Add(1)
		go func(h host, req baseRequest) {
			defer wg.Done()
			r.superviseHost(ctx, h, d, st, req, trackConn, tracker, cfg.Seed)
		}(h, hreq)
	}
	wg.Wait()

	if d.isFleetDown() && r.FallbackLocal && ctx.Err() == nil {
		n := r.runFallback(ctx, cfg, st, seedOf)
		tracker.fallback(n)
		r.logf("net: fleet down past %v; ran %d remaining jobs on the local fallback", r.allDeadDeadline(), n)
	}

	// Whatever is still unreceived after every supervisor exited can never
	// run: the fleet went down (without fallback) or the run was
	// cancelled.
	strandErr := d.strandErr(ctx)
	st.mu.Lock()
	for i := range jobs {
		if !st.received[i] {
			st.results[i] = errResult(i, &jobs[i], strandErr)
			st.received[i] = true
			st.report(st.results[i])
		}
	}
	st.mu.Unlock()
	r.logf("net: run stats: %s", tracker.snapshot())
	return results
}

// runFallback executes the still-unreceived jobs on the in-process
// LocalRunner with their already-resolved seeds pinned, routing telemetry
// and results through the same merge state, and returns how many jobs it
// ran. Graceful degradation: a fleet-wide outage costs locality, not the
// run.
func (r *Runner) runFallback(ctx context.Context, cfg fleet.Config, st *runState, seedOf map[int]int64) int {
	var subJobs []fleet.Job
	var subIdx []int
	st.mu.Lock()
	for i := range st.jobs {
		if st.received[i] {
			continue
		}
		j := st.jobs[i]
		j.Seed = seedOf[i] // resolved pre-dispatch; pins byte-identity
		subJobs = append(subJobs, j)
		subIdx = append(subIdx, i)
	}
	st.mu.Unlock()
	if len(subJobs) == 0 {
		return 0
	}
	sub := fleet.Config{Workers: cfg.Workers, Seed: cfg.Seed}
	if st.sink != nil {
		sub.Sink = sink.Func(func(id sink.JobID, s device.Sample) {
			st.sink.Accept(sink.JobID(subIdx[int(id)]), s)
		})
	}
	res := fleet.LocalRunner{}.Run(ctx, sub, subJobs)
	st.mu.Lock()
	for k := range res {
		idx := subIdx[k]
		res[k].Index = idx
		st.results[idx] = res[k]
		st.received[idx] = true
		st.report(res[k])
	}
	st.mu.Unlock()
	return len(subJobs)
}

// itemPlan is how a run partitions its jobs and sizes its pipe workers.
type itemPlan struct {
	size        int // jobs per work item
	pipes       int // pipe workers to spawn
	pipeWorkers int // pool width of each pipe worker
}

// planItems partitions n spec'd jobs over nHosts hosts, nPipes of them
// "exec:" entries, on a machine with cores cores. Items default to about
// four per host, so the queue can rebalance around slow or recovering
// workers. Pipe workers share this machine, so they never oversubscribe
// it: at most one process per item, and unless the run sets workers, the
// cores split evenly across the processes (a TCP daemon splits its own
// cores across its capacity). A pipe worker runs one item at a time, so
// when every host is a pipe, a default-sized item is at least one pool
// wide — smaller items would leave workers idle at every item boundary.
func planItems(n, nHosts, nPipes, shardSize, workers, cores int) itemPlan {
	p := itemPlan{size: shardSize, pipes: min(nPipes, n), pipeWorkers: workers}
	width := func() {
		if workers <= 0 && p.pipes > 0 {
			p.pipeWorkers = (cores + p.pipes - 1) / p.pipes
		}
	}
	width()
	if p.size <= 0 {
		p.size = (n + 4*nHosts - 1) / (4 * nHosts)
		if nPipes == nHosts {
			p.size = max(p.size, p.pipeWorkers)
		}
	}
	if items := (n + p.size - 1) / p.size; p.pipes > items {
		p.pipes = items
		width()
	}
	return p
}

// baseRequest carries the per-run constants every shard request shares.
type baseRequest struct {
	pred        []byte
	workers     int
	wantSamples bool
	event       int
}

// hostGen is one connected generation of a host: the slots it spawned
// share a failure record, and the first transport loss takes the whole
// generation down — a killed daemon drops every connection at once, and
// the supervisor owns redialing.
type hostGen struct {
	h    host
	d    *dispatcher
	mu   sync.Mutex
	down bool
	err  error
}

// fail records the generation's first failure and wakes blocked slots.
func (g *hostGen) fail(err error) bool {
	g.mu.Lock()
	first := !g.down
	if first {
		g.down = true
		g.err = err
	}
	g.mu.Unlock()
	if first {
		g.d.cond.Broadcast()
	}
	return first
}

func (g *hostGen) isDown() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down
}

// superviseHost owns one inventory entry for the whole run: dial, run a
// generation of slots, and on failure back off exponentially (seeded
// jitter) and redial — opening the circuit breaker after consecutive
// failures and probing half-open after a cooldown. The host rejoins the
// dispatch pool the moment a generation connects; it is never retired
// while the run needs it.
func (r *Runner) superviseHost(ctx context.Context, h host, d *dispatcher, st *runState, req baseRequest, trackConn func(stdnet.Conn, bool), tk *statsTracker, baseSeed int64) {
	addr := h.addr
	base, maxB := r.backoffBase(), r.backoffMax()
	kOpen := r.breakerThreshold()
	coolBase := r.breakerCooldown()
	jr := rand.New(rand.NewSource(baseSeed ^ hashAddr(addr) ^ int64(h.idx)))
	backoff, cooldown := base, coolBase
	fails := 0
	breaker := BreakerClosed
	note := func(err error) {
		tk.update(h.idx, func(hs *HostStats) {
			hs.Breaker = breaker
			hs.ConsecutiveFails = fails
			if err != nil {
				hs.LastErr = err.Error()
			}
		})
	}
	for gen := 0; ; gen++ {
		if d.runOver() || ctx.Err() != nil {
			return
		}
		if breaker == BreakerOpen {
			note(nil)
			r.logf("net: host %s: breaker open after %d consecutive failures; cooling down %v", addr, fails, cooldown)
			d.sleep(ctx, cooldown+jitter(jr, cooldown))
			if cooldown *= 2; cooldown > 4*maxB {
				cooldown = 4 * maxB
			}
			breaker = BreakerHalfOpen
			note(nil)
			continue
		}
		tk.update(h.idx, func(hs *HostStats) { hs.ConnectAttempts++ })
		conn, capacity, err := r.dial(ctx, h)
		if err != nil {
			fails++
			err = fmt.Errorf("net: host %s: %w", addr, err)
			d.noteErr(err)
			if fails >= kOpen {
				breaker = BreakerOpen
				note(err)
				continue
			}
			note(err)
			r.logf("%v: redialing in ~%v (attempt %d)", err, backoff, fails)
			d.sleep(ctx, backoff+jitter(jr, backoff))
			if backoff *= 2; backoff > maxB {
				backoff = maxB
			}
			continue
		}
		halfOpen := breaker == BreakerHalfOpen
		tk.update(h.idx, func(hs *HostStats) {
			hs.Connected = true
			hs.Capacity = capacity
			if gen > 0 {
				hs.Redials++
			}
		})
		d.setConnected(h.idx, true)
		if halfOpen {
			r.logf("net: host %s: reconnected (half-open probe), capacity %d", addr, capacity)
		} else {
			r.logf("net: host %s: connected, capacity %d", addr, capacity)
		}
		genOK := r.runGeneration(ctx, h, conn, capacity, halfOpen, d, st, req, trackConn, tk)
		d.setConnected(h.idx, false)
		tk.update(h.idx, func(hs *HostStats) {
			hs.Connected = false
			hs.SlotsConnected = 0
		})
		if genOK {
			fails, backoff, cooldown = 0, base, coolBase
			breaker = BreakerClosed
		} else {
			fails++
			if fails >= kOpen {
				breaker = BreakerOpen
			}
		}
		note(nil)
		if d.runOver() {
			return
		}
		if breaker != BreakerOpen {
			d.sleep(ctx, backoff+jitter(jr, backoff))
			if backoff *= 2; backoff > maxB {
				backoff = maxB
			}
		}
	}
}

// runGeneration runs one connected generation: the probe connection
// serves as the first slot, and the rest of the daemon's advertised
// capacity is dialed alongside — with per-slot retry instead of silently
// running short. A half-open generation starts with just the probe slot
// and expands to full capacity on its first completed item (which also
// closes the breaker). Returns whether the generation completed at least
// one item.
func (r *Runner) runGeneration(ctx context.Context, h host, conn0 stdnet.Conn, capacity int, halfOpen bool, d *dispatcher, st *runState, req baseRequest, trackConn func(stdnet.Conn, bool), tk *statsTracker) bool {
	g := &hostGen{h: h, d: d}
	addr := h.addr
	var wg sync.WaitGroup
	var okMu sync.Mutex
	okItems := 0
	var expandOnce sync.Once
	var dialExtras func(n int)

	runSlotConn := func(c stdnet.Conn, onSuccess func()) {
		trackConn(c, true)
		tk.update(h.idx, func(hs *HostStats) {
			hs.SlotsConnected++
			hs.SlotShortfall = hs.Capacity - hs.SlotsConnected
		})
		defer func() {
			tk.update(h.idx, func(hs *HostStats) { hs.SlotsConnected-- })
			trackConn(c, false)
			c.Close()
		}()
		r.runSlot(ctx, g, c, d, st, req, onSuccess)
	}
	onSuccess := func() {
		okMu.Lock()
		okItems++
		okMu.Unlock()
		if halfOpen {
			expandOnce.Do(func() {
				tk.update(h.idx, func(hs *HostStats) { hs.Breaker = BreakerClosed })
				if capacity > 1 {
					r.logf("net: host %s: probe shard completed; breaker closed, expanding to capacity %d", addr, capacity)
					dialExtras(capacity - 1)
				} else {
					r.logf("net: host %s: probe shard completed; breaker closed", addr)
				}
			})
		}
	}
	// dialExtras brings up n additional slots, each retrying its dial
	// under backoff instead of abandoning advertised capacity (the old
	// behavior silently ran the host short).
	dialExtras = func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				backoff := r.backoffBase()
				maxB := r.backoffMax()
				for {
					if g.isDown() || d.runOver() || ctx.Err() != nil {
						return
					}
					c, _, err := r.dial(ctx, h)
					if err != nil {
						tk.update(h.idx, func(hs *HostStats) {
							hs.SlotShortfall = hs.Capacity - hs.SlotsConnected
							hs.LastErr = err.Error()
						})
						r.logf("net: host %s: slot %d dial failed (%v); retrying in %v", addr, slot, err, backoff)
						d.sleep(ctx, backoff)
						if backoff *= 2; backoff > maxB {
							backoff = maxB
						}
						continue
					}
					runSlotConn(c, onSuccess)
					return
				}
			}(i)
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		runSlotConn(conn0, onSuccess)
	}()
	if !halfOpen && capacity > 1 {
		dialExtras(capacity - 1)
	}
	wg.Wait()
	okMu.Lock()
	defer okMu.Unlock()
	return okItems > 0
}

// dial opens a connection to one host — a TCP dial, or a worker spawn
// for a pipe host — and completes the hello handshake, returning the
// connection and the worker's advertised capacity. Everything after it is
// transport-blind.
func (r *Runner) dial(ctx context.Context, h host) (stdnet.Conn, int, error) {
	timeout := r.DialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	var conn stdnet.Conn
	var err error
	if h.exe != "" {
		conn, err = spawn(h.exe)
	} else {
		conn, err = (&stdnet.Dialer{Timeout: timeout}).DialContext(ctx, "tcp", h.addr)
	}
	if err != nil {
		return nil, 0, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	f, err := wire.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, 0, fmt.Errorf("hello: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if f.Type != wire.TypeHello {
		conn.Close()
		return nil, 0, fmt.Errorf("hello: expected a %s frame, got %s", wire.TypeHello, f.Type)
	}
	if f.Hello.Proto != wire.Version {
		conn.Close()
		return nil, 0, fmt.Errorf("hello: protocol version %d, want %d", f.Hello.Proto, wire.Version)
	}
	return conn, f.Hello.Capacity, nil
}

// runSlot is one in-flight-shard lane on one connection: claim an
// attempt, ship it, merge the stream, repeat. A transport failure takes the
// generation down, requeues the attempt's unreported jobs (unless a
// hedged sibling still owns them) and hands the connection back;
// worker-side error frames are deterministic failures and are not
// retried.
func (r *Runner) runSlot(ctx context.Context, g *hostGen, conn stdnet.Conn, d *dispatcher, st *runState, req baseRequest, onSuccess func()) {
	maxRetries := r.maxRetries()
	hbTimeout := r.hbTimeout()
	writeTO := writeTimeoutFor(hbTimeout)
	for {
		if g.isDown() || ctx.Err() != nil {
			return
		}
		at := d.next(g.h.idx, g)
		if at == nil {
			return
		}
		specs := st.pendingSpecs(at.specs)
		if len(specs) == 0 {
			d.settle(at, 0, true)
			continue
		}
		start := time.Now()
		err := r.streamItem(conn, at, specs, st, req, hbTimeout)
		if err == nil {
			d.settle(at, time.Since(start), true)
			onSuccess()
			continue
		}
		var werr workerError
		if errors.As(err, &werr) {
			// The worker rejected the request deterministically (bad
			// predictor, bad frame): retrying elsewhere reproduces the same
			// failure. The connection stays usable.
			st.failSpecs(specs, err)
			d.settle(at, 0, false)
			continue
		}
		// Transport loss. Attribute the right cause, take the generation
		// down so the supervisor redials, and give the unreported jobs to
		// another attempt — unless the run is cancelled or the item is out
		// of attempts.
		if ctx.Err() != nil {
			// Best-effort cancel so a surviving worker stops burning cores;
			// the deadline poke already unblocked our read.
			conn.SetWriteDeadline(time.Now().Add(writeTO))
			wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeCancel})
			d.abandon(at)
			return
		}
		err = fmt.Errorf("net: host %s: %w", g.h.addr, err)
		if g.fail(err) {
			r.logf("%v: connection lost; host backing off for redial", err)
		}
		retry := st.unreported(at)
		requeue, exhausted, attempts := d.lose(at, retry, maxRetries, err)
		switch {
		case exhausted:
			st.failSpecs(retry, fmt.Errorf("%w (retries exhausted)", err))
		case requeue:
			r.logf("net: host %s: requeueing %d unreported jobs (attempt %d)", g.h.addr, len(retry), attempts)
		}
		return
	}
}

// workerError wraps a worker-side error frame: deterministic, not
// retryable.
type workerError struct{ msg string }

func (e workerError) Error() string { return e.msg }

// streamItem ships one attempt's specs as a shard request and merges the
// frames streaming back until the worker's done frame. Heartbeats (and
// any other traffic) refresh the read deadline; hbTimeout of silence is a
// transport failure.
func (r *Runner) streamItem(conn stdnet.Conn, at *attempt, specs []fleet.JobSpec, st *runState, req baseRequest, hbTimeout time.Duration) error {
	sreq := &wire.ShardRequest{
		Workers:     req.workers,
		Predictor:   req.pred,
		WantSamples: req.wantSamples,
		Event:       req.event,
		Jobs:        specs,
	}
	conn.SetWriteDeadline(time.Now().Add(hbTimeout))
	if err := wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeShard, Shard: sreq}); err != nil {
		return fmt.Errorf("send shard: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	for {
		conn.SetReadDeadline(time.Now().Add(hbTimeout))
		f, err := wire.ReadFrame(conn)
		if err != nil {
			var nerr stdnet.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return fmt.Errorf("no heartbeat for %v: %w", hbTimeout, err)
			}
			return err
		}
		switch f.Type {
		case wire.TypeHeartbeat:
			// Liveness pulse only; the deadline reset above is the point.
		case wire.TypeSample:
			st.sample(f.Sample.Job, at, f.Sample.Sample)
		case wire.TypeResult:
			st.result(f.Result, at)
		case wire.TypeDone:
			conn.SetReadDeadline(time.Time{})
			return nil
		case wire.TypeError:
			conn.SetReadDeadline(time.Time{})
			return workerError{msg: fmt.Sprintf("worker: %s", f.Err)}
		default:
			return fmt.Errorf("unexpected %s frame mid-shard", f.Type)
		}
	}
}

// Breaker states as surfaced in HostStats.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// HostStats is one host's supervisor state snapshot.
type HostStats struct {
	Addr             string `json:"addr"`
	Connected        bool   `json:"connected"`
	Breaker          string `json:"breaker"`
	ConnectAttempts  int    `json:"connect_attempts"`
	Redials          int    `json:"redials"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	Capacity         int    `json:"capacity"`
	SlotsConnected   int    `json:"slots_connected"`
	SlotShortfall    int    `json:"slot_shortfall"`
	ItemsCompleted   int    `json:"items_completed"`
	LastErr          string `json:"last_err,omitempty"`
}

// RunnerStats is a point-in-time snapshot of a run's recovery machinery:
// per-host supervisor state plus fleet-level hedging and fallback
// counters.
type RunnerStats struct {
	Hosts        []HostStats `json:"hosts"`
	Hedges       int         `json:"hedges"`
	HedgeWins    int         `json:"hedge_wins"`
	FallbackUsed bool        `json:"fallback_used,omitempty"`
	FallbackJobs int         `json:"fallback_jobs,omitempty"`
}

// String renders the snapshot as one log-friendly line.
func (s RunnerStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hedges=%d wins=%d", s.Hedges, s.HedgeWins)
	if s.FallbackUsed {
		fmt.Fprintf(&b, " fallback=%d", s.FallbackJobs)
	}
	for _, h := range s.Hosts {
		fmt.Fprintf(&b, " | %s: breaker=%s connected=%v dials=%d redials=%d slots=%d/%d items=%d",
			h.Addr, h.Breaker, h.Connected, h.ConnectAttempts, h.Redials, h.SlotsConnected, h.Capacity, h.ItemsCompleted)
		if h.SlotShortfall > 0 {
			fmt.Fprintf(&b, " shortfall=%d", h.SlotShortfall)
		}
		if h.LastErr != "" {
			fmt.Fprintf(&b, " lastErr=%q", h.LastErr)
		}
	}
	return b.String()
}

// statsTracker is the mutable, locked store behind RunnerStats, one row
// per inventory entry.
type statsTracker struct {
	mu           sync.Mutex
	hosts        []HostStats
	hedges       int
	hedgeWins    int
	fallbackUsed bool
	fallbackJobs int
}

func newStatsTracker(hosts []string) *statsTracker {
	t := &statsTracker{hosts: make([]HostStats, len(hosts))}
	for i, a := range hosts {
		t.hosts[i] = HostStats{Addr: a, Breaker: BreakerClosed}
	}
	return t
}

func (t *statsTracker) update(h int, fn func(*HostStats)) {
	t.mu.Lock()
	fn(&t.hosts[h])
	t.mu.Unlock()
}

func (t *statsTracker) hedge() {
	t.mu.Lock()
	t.hedges++
	t.mu.Unlock()
}

func (t *statsTracker) hedgeWin() {
	t.mu.Lock()
	t.hedgeWins++
	t.mu.Unlock()
}

func (t *statsTracker) itemDone(h int) {
	t.update(h, func(hs *HostStats) { hs.ItemsCompleted++ })
}

func (t *statsTracker) fallback(jobs int) {
	t.mu.Lock()
	t.fallbackUsed = true
	t.fallbackJobs = jobs
	t.mu.Unlock()
}

func (t *statsTracker) snapshot() RunnerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return RunnerStats{
		Hosts:        append([]HostStats(nil), t.hosts...),
		Hedges:       t.hedges,
		HedgeWins:    t.hedgeWins,
		FallbackUsed: t.fallbackUsed,
		FallbackJobs: t.fallbackJobs,
	}
}

// Stats snapshots the most recent (possibly in-progress) Run's recovery
// state. Before any Run it returns the zero RunnerStats.
func (r *Runner) Stats() RunnerStats {
	if t, ok := r.statsCell().Load().(*statsTracker); ok && t != nil {
		return t.snapshot()
	}
	return RunnerStats{}
}

// statsCell resolves where this runner's trackers live: its own cell, or
// the original's when PublishStatsTo redirected a copy.
func (r *Runner) statsCell() *atomic.Value {
	if r.statsDst != nil {
		return r.statsDst
	}
	return &r.stats
}

// PublishStatsTo makes the receiver's future Runs publish their recovery
// tracker into orig's stats cell (and Stats read from it), so a caller
// holding orig still observes runs executed on a modified copy.
// RunScenario uses this when it must attach a predictor to a
// caller-supplied networked runner; JobServer's per-job clones
// deliberately do NOT share, keeping one tracker per job.
func (r *Runner) PublishStatsTo(orig *Runner) { r.statsDst = orig.statsCell() }
