package net_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
	fleetnet "repro/internal/fleet/net"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
	"repro/internal/workload"
)

// specJobs builds n spec-carrying benchmark jobs (no predictor needed).
// Seeds are left unpinned so the tests exercise coordinator-side seed
// resolution against the local runner's.
func specJobs(n int, traceFree bool) []fleet.Job {
	jobs := make([]fleet.Job, n)
	for i := range jobs {
		spec := &fleet.JobSpec{
			Name:      fmt.Sprintf("job-%d", i),
			Workload:  fleet.WorkloadRef{Name: "skype", Seed: uint64(i)},
			DurSec:    30,
			TraceFree: traceFree,
		}
		jobs[i] = fleet.Job{
			Name:      spec.Name,
			Workload:  workload.ByName(spec.Workload.Name, spec.Workload.Seed),
			DurSec:    spec.DurSec,
			TraceFree: traceFree,
			Spec:      spec,
		}
	}
	return jobs
}

// tally is the order-insensitive telemetry fingerprint shared with the
// shard tests: per-job sample counts and skin-value sums (per-job delivery
// is FIFO on every path, so float sums are bit-comparable).
type tally struct {
	mu     sync.Mutex
	counts map[int]int
	sums   map[int]float64
}

func newTally() *tally { return &tally{counts: map[int]int{}, sums: map[int]float64{}} }

func (t *tally) sink() sink.Sink {
	return sink.Func(func(id sink.JobID, s device.Sample) {
		t.mu.Lock()
		t.counts[int(id)]++
		t.sums[int(id)] += s.SkinC
		t.mu.Unlock()
	})
}

// startServer runs an in-process worker daemon on a loopback port and
// returns its address. The daemon is shut down with the test.
func startServer(t *testing.T, s *fleetnet.Server) string {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(context.Background(), ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("server exited: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestNetRunnerMatchesLocal is the distributed determinism contract: the
// same batch through two TCP worker daemons must be byte-identical to the
// in-process pool: results, seeds, telemetry.
func TestNetRunnerMatchesLocal(t *testing.T) {
	const n = 8
	cfg := fleet.Config{Workers: 2, Seed: 42}

	run := func(r fleet.Runner) ([]fleet.JobResult, *tally) {
		tl := newTally()
		c := cfg
		c.Sink = tl.sink()
		return r.Run(context.Background(), c, specJobs(n, true)), tl
	}

	ref, refTally := run(fleet.LocalRunner{})
	if err := fleet.FirstError(ref); err != nil {
		t.Fatal(err)
	}
	addr1 := startServer(t, &fleetnet.Server{Capacity: 2})
	addr2 := startServer(t, &fleetnet.Server{Capacity: 2})
	nr := fleetnet.New([]string{addr1, addr2})
	nr.ShardSize = 2
	got, gotTally := run(nr)
	if err := fleet.FirstError(got); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		a, b := ref[i], got[i]
		if b.Index != a.Index || b.Name != a.Name || b.SeedUsed != a.SeedUsed {
			t.Fatalf("job %d: metadata diverged: %+v vs %+v", i, b, a)
		}
		if b.Result.EnergyJ != a.Result.EnergyJ || b.Result.MaxSkinC != a.Result.MaxSkinC ||
			b.Result.AvgFreqMHz != a.Result.AvgFreqMHz || b.Result.WorkDone != a.Result.WorkDone {
			t.Fatalf("job %d: aggregates diverged", i)
		}
	}
	for i := 0; i < n; i++ {
		if gotTally.counts[i] != refTally.counts[i] || gotTally.sums[i] != refTally.sums[i] {
			t.Fatalf("job %d: telemetry diverged: %d/%v samples vs local %d/%v",
				i, gotTally.counts[i], gotTally.sums[i], refTally.counts[i], refTally.sums[i])
		}
	}
}

// killingProxy fronts a real worker daemon and murders the connection
// after forwarding a fixed number of result frames — the observable
// signature of a worker killed mid-shard: some jobs reported, the stream
// cut, no done frame.
type killingProxy struct {
	ln           stdnet.Listener
	backend      string
	resultsUntil int
	once         sync.Once // only the first connection is murdered
	wg           sync.WaitGroup
}

func startKillingProxy(t *testing.T, backend string, resultsUntil int) *killingProxy {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killingProxy{ln: ln, backend: backend, resultsUntil: resultsUntil}
	p.wg.Add(1)
	go p.serve(t)
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *killingProxy) addr() string { return p.ln.Addr().String() }

func (p *killingProxy) serve(t *testing.T) {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		kill := false
		p.once.Do(func() { kill = true })
		p.wg.Add(1)
		go func(client stdnet.Conn, kill bool) {
			defer p.wg.Done()
			defer client.Close()
			server, err := stdnet.Dial("tcp", p.backend)
			if err != nil {
				return
			}
			defer server.Close()
			go func() {
				// Requests flow through untouched; a vanished client ends
				// the whole relay (closing server unblocks the other copy).
				io.Copy(server, client)
				server.Close()
			}()
			if !kill {
				io.Copy(client, server)
				return
			}
			// Forward frame-by-frame until enough results have passed, then
			// cut both sides mid-stream.
			results := 0
			for {
				f, err := wire.ReadFrame(server)
				if err != nil {
					return
				}
				if err := wire.WriteFrame(client, f); err != nil {
					return
				}
				if f.Type == wire.TypeResult {
					results++
					if results >= p.resultsUntil {
						return // defers close both conns: the "kill"
					}
				}
			}
		}(client, kill)
	}
}

// startSlowProxy fronts a backend with a fixed pre-handshake delay: the
// coordinator's hello read stalls that long before the relay starts. It
// keeps a host out of the early dispatch race so a test can steer which
// host claims the first work item.
func startSlowProxy(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(client stdnet.Conn) {
				defer wg.Done()
				defer client.Close()
				time.Sleep(delay)
				server, err := stdnet.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer server.Close()
				go func() {
					io.Copy(server, client)
					server.Close()
				}()
				io.Copy(client, server)
			}(client)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestNetRunnerWorkerLossRetry: a worker killed mid-shard keeps the jobs
// it reported, and only the unreported remainder is retried on the
// surviving host — with results and telemetry byte-identical to local,
// including the partially-streamed telemetry of retried jobs appearing
// exactly once.
func TestNetRunnerWorkerLossRetry(t *testing.T) {
	const n = 8
	cfg := fleet.Config{Workers: 2, Seed: 42}

	refTally := newTally()
	refCfg := cfg
	refCfg.Sink = refTally.sink()
	ref := fleet.LocalRunner{}.Run(context.Background(), refCfg, specJobs(n, true))
	if err := fleet.FirstError(ref); err != nil {
		t.Fatal(err)
	}

	// Host A is a real daemon behind a proxy that cuts the first connection
	// after one result frame; host B is healthy but held out of the early
	// dispatch race by a slow-start proxy, so A is guaranteed to claim the
	// first work item before dying. One shard of 4 jobs dies with 1 job
	// reported; its 3 unreported jobs must resurface on B.
	backend := startServer(t, &fleetnet.Server{Capacity: 1})
	proxy := startKillingProxy(t, backend, 1)
	healthyBackend := startServer(t, &fleetnet.Server{Capacity: 1})
	healthy := startSlowProxy(t, healthyBackend, 600*time.Millisecond)

	nr := fleetnet.New([]string{proxy.addr(), healthy})
	nr.ShardSize = 4
	nr.HeartbeatTimeout = 5 * time.Second
	var logMu sync.Mutex
	var logs []string
	nr.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	gotTally := newTally()
	gotCfg := cfg
	gotCfg.Sink = gotTally.sink()
	got := nr.Run(context.Background(), gotCfg, specJobs(n, true))
	if err := fleet.FirstError(got); err != nil {
		t.Fatalf("run with worker loss should fully recover: %v", err)
	}
	for i := range ref {
		a, b := ref[i], got[i]
		if b.SeedUsed != a.SeedUsed || b.Result.EnergyJ != a.Result.EnergyJ ||
			b.Result.MaxSkinC != a.Result.MaxSkinC || b.Result.WorkDone != a.Result.WorkDone {
			t.Fatalf("job %d diverged after retry", i)
		}
	}
	for i := 0; i < n; i++ {
		if gotTally.counts[i] != refTally.counts[i] || gotTally.sums[i] != refTally.sums[i] {
			t.Fatalf("job %d telemetry diverged after retry: %d/%v vs local %d/%v",
				i, gotTally.counts[i], gotTally.sums[i], refTally.counts[i], refTally.sums[i])
		}
	}
	logMu.Lock()
	defer logMu.Unlock()
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "connection lost") || !strings.Contains(joined, "requeueing") {
		t.Fatalf("expected connection-loss and requeue log lines, got:\n%s", joined)
	}
}

// TestNetRunnerHeartbeatDeadline: a worker that accepts a shard and then
// goes silent — no samples, no results, no heartbeats — is declared dead
// at the deadline and its jobs complete on the healthy host.
func TestNetRunnerHeartbeatDeadline(t *testing.T) {
	// The silent worker: speaks a correct hello, swallows the request, says
	// nothing ever again.
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	silentConns := make(chan stdnet.Conn, 16)
	defer func() {
		close(silentConns)
		for c := range silentConns {
			c.Close()
		}
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			silentConns <- conn
			wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeHello,
				Hello: &wire.HelloFrame{Proto: wire.Version, Capacity: 1}})
			// Read and ignore everything; never answer.
			go io.Copy(io.Discard, conn)
		}
	}()

	// The healthy host starts slow so the silent one is guaranteed to claim
	// a work item and wedge it.
	healthyBackend := startServer(t, &fleetnet.Server{Capacity: 2})
	healthy := startSlowProxy(t, healthyBackend, 600*time.Millisecond)
	nr := fleetnet.New([]string{ln.Addr().String(), healthy})
	nr.ShardSize = 2
	nr.HeartbeatTimeout = 300 * time.Millisecond
	// The silent host now recovers instead of dying; give the wedged items
	// retry headroom so they outlast its pre-breaker reclaim window.
	nr.MaxRetries = 6
	var logMu sync.Mutex
	var joined strings.Builder
	nr.Logf = func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&joined, format+"\n", args...)
		logMu.Unlock()
	}
	results := nr.Run(context.Background(), fleet.Config{Workers: 2, Seed: 7}, specJobs(6, true))
	if err := fleet.FirstError(results); err != nil {
		t.Fatalf("jobs should have recovered on the healthy host: %v", err)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(joined.String(), "no heartbeat for") {
		t.Fatalf("expected a heartbeat-deadline death, got:\n%s", joined.String())
	}
}

// TestServerMalformedFrames: protocol garbage over a real TCP connection —
// a bogus length prefix, a truncated frame, a non-shard frame — earns an
// error frame (where a reply is possible) and a closed connection, and the
// daemon keeps serving honest clients afterwards.
func TestServerMalformedFrames(t *testing.T) {
	addr := startServer(t, &fleetnet.Server{Capacity: 1})

	dial := func() stdnet.Conn {
		t.Helper()
		conn, err := stdnet.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		f, err := wire.ReadFrame(conn)
		if err != nil || f.Type != wire.TypeHello {
			t.Fatalf("hello: %v (%+v)", err, f)
		}
		return conn
	}

	// Garbage JSON inside a well-formed length prefix.
	conn := dial()
	payload := []byte("{\"v\":1,\"type\":")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	conn.Write(hdr[:])
	conn.Write(payload)
	f, err := wire.ReadFrame(conn)
	if err != nil || f.Type != wire.TypeError {
		t.Fatalf("garbage frame: want an error frame, got %+v err=%v", f, err)
	}
	if _, err := wire.ReadFrame(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("connection should be closed after a protocol violation, got %v", err)
	}
	conn.Close()

	// An absurd length prefix must be rejected without allocating it.
	conn = dial()
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	conn.Write(hdr[:])
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.TypeError {
		t.Fatalf("oversized frame: want an error frame, got %+v err=%v", f, err)
	}
	conn.Close()

	// A truncated frame (length promised, bytes withheld, connection cut)
	// must not wedge the daemon.
	conn = dial()
	binary.BigEndian.PutUint32(hdr[:], 4096)
	conn.Write(hdr[:])
	conn.Write([]byte("{\"v\":1"))
	conn.Close()

	// A structurally valid frame of the wrong type mid-handshake.
	conn = dial()
	if err := wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeDone}); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.TypeError {
		t.Fatalf("wrong-type frame: want an error frame, got %+v err=%v", f, err)
	}
	conn.Close()

	// The daemon survived all of it: an honest run still works.
	nr := fleetnet.New([]string{addr})
	results := nr.Run(context.Background(), fleet.Config{Workers: 1, Seed: 1}, specJobs(2, true))
	if err := fleet.FirstError(results); err != nil {
		t.Fatalf("daemon no longer serves honest clients: %v", err)
	}
}

// TestNetRunnerCancellation: cancelling the coordinator's context tears
// down every connection promptly and marks unfinished jobs with the
// context error, matching local-runner semantics.
func TestNetRunnerCancellation(t *testing.T) {
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

	addr := startServer(t, &fleetnet.Server{Capacity: 2})

	// Pre-cancelled context: deterministic, nothing dispatched.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range fleetnet.New([]string{addr}).Run(ctx, fleet.Config{Workers: 1, Seed: 1}, longJobs(4)) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("pre-cancelled: job %d err = %v, want context.Canceled", i, r.Err)
		}
	}

	// Mid-run cancellation: every job either completed cleanly or carries
	// the context error, and the run returns promptly.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	results := fleetnet.New([]string{addr}).Run(ctx2, fleet.Config{Workers: 1, Seed: 1}, longJobs(200))
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v after cancellation; connections were not torn down", elapsed)
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
		t.Fatal("200 long jobs all finished before a 50ms cancel; expected at least one cancellation")
	}
}

// TestNetRunnerAllHostsDown: unreachable inventory fails every job with a
// descriptive error instead of hanging.
func TestNetRunnerAllHostsDown(t *testing.T) {
	// A listener that is closed immediately: connection refused, fast.
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	nr := fleetnet.New([]string{addr})
	nr.DialTimeout = time.Second
	// Supervisors keep redialing a down host; bound how long the run waits
	// for anything to connect.
	nr.AllDeadDeadline = 500 * time.Millisecond
	results := nr.Run(context.Background(), fleet.Config{Seed: 1}, specJobs(3, true))
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d should carry the dial failure", i)
		}
	}
}

// TestServerRejectsUnknownEventMode: a shard request naming a stepping
// engine other than off or jump is answered with one per-job error per
// spec and a done frame, and the worker keeps serving.
func TestServerRejectsUnknownEventMode(t *testing.T) {
	addr := startServer(t, &fleetnet.Server{Capacity: 1})
	for _, event := range []int{-1, 1, 2, 7} {
		conn, err := stdnet.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.TypeHello {
			t.Fatalf("hello: %v", err)
		}
		jobs := specJobs(2, true)
		req := &wire.ShardRequest{Workers: 1, Event: event}
		for i := range jobs {
			spec := *jobs[i].Spec
			spec.Index = i
			spec.Seed = fleet.EffectiveSeed(7, i, &jobs[i])
			req.Jobs = append(req.Jobs, spec)
		}
		if err := wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeShard, Shard: req}); err != nil {
			t.Fatal(err)
		}
		errs := 0
		for done := false; !done; {
			f, err := wire.ReadFrame(conn)
			if err != nil {
				t.Fatalf("event %d: stream broke after %d results: %v", event, errs, err)
			}
			switch f.Type {
			case wire.TypeResult:
				if !strings.Contains(f.Result.Err, "unknown event mode") {
					t.Fatalf("event %d: job %d err = %q, want unknown event mode", event, f.Result.Index, f.Result.Err)
				}
				errs++
			case wire.TypeDone:
				done = true
			case wire.TypeHeartbeat:
			default:
				t.Fatalf("event %d: unexpected %s frame", event, f.Type)
			}
		}
		conn.Close()
		if errs != len(jobs) {
			t.Fatalf("event %d: %d per-job errors, want %d", event, errs, len(jobs))
		}
	}
	// The worker is still up and runs a valid shard.
	nr := fleetnet.New([]string{addr})
	if err := fleet.FirstError(nr.Run(context.Background(), fleet.Config{Workers: 1, Seed: 7, Event: device.EventJump}, specJobs(2, true))); err != nil {
		t.Fatalf("worker after bad requests: %v", err)
	}
}

// TestServerGracefulShutdown: Shutdown with a shard in flight lets it
// finish and flush — the client still receives every result and the done
// frame — then the connection closes.
func TestServerGracefulShutdown(t *testing.T) {
	s := &fleetnet.Server{Capacity: 1}
	addr := startServer(t, s)

	conn, err := stdnet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.TypeHello {
		t.Fatalf("hello: %v", err)
	}
	jobs := specJobs(2, true)
	req := &wire.ShardRequest{Workers: 1}
	for i := range jobs {
		spec := *jobs[i].Spec
		spec.Index = i
		spec.Seed = fleet.EffectiveSeed(7, i, &jobs[i])
		req.Jobs = append(req.Jobs, spec)
	}
	if err := wire.WriteFrame(conn, &wire.Frame{V: wire.Version, Type: wire.TypeShard, Shard: req}); err != nil {
		t.Fatal(err)
	}
	// Shutdown races the in-flight shard; the drain contract says we still
	// get both results and the done frame.
	shutdownDone := make(chan struct{})
	go func() {
		s.Shutdown()
		close(shutdownDone)
	}()
	results, done := 0, false
	for !done {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("stream broke during graceful drain after %d results: %v", results, err)
		}
		switch f.Type {
		case wire.TypeResult:
			results++
		case wire.TypeDone:
			done = true
		case wire.TypeHeartbeat:
		default:
			t.Fatalf("unexpected %s frame during drain", f.Type)
		}
	}
	if results != 2 {
		t.Fatalf("drain delivered %d results, want 2", results)
	}
	<-shutdownDone
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("connection should close after the drained shard")
	}
}

// TestTokenBucket covers the admission gate: burst spends, refill credits,
// a request beyond the burst is refused.
func TestTokenBucket(t *testing.T) {
	b := fleetnet.NewTokenBucket(1000, 10)
	if !b.Allow(10) {
		t.Fatal("full burst should be admitted immediately")
	}
	if b.Allow(10) {
		t.Fatal("bucket should be empty")
	}
	// Refill at 1000/s: 10 tokens take ~10ms.
	deadline := time.Now().Add(5 * time.Second)
	for !b.Allow(10) {
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(time.Millisecond)
	}
	// A request beyond burst can never be admitted.
	if b.Allow(50) {
		t.Fatal("beyond-burst Allow admitted")
	}
}

// TestNoGoroutineLeaks: a full life cycle — runs, worker loss, shutdown —
// returns the process to its baseline goroutine count.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	s1 := &fleetnet.Server{Capacity: 2}
	s2 := &fleetnet.Server{Capacity: 2}
	ln1, _ := stdnet.Listen("tcp", "127.0.0.1:0")
	ln2, _ := stdnet.Listen("tcp", "127.0.0.1:0")
	done1 := make(chan struct{})
	done2 := make(chan struct{})
	go func() { s1.Serve(context.Background(), ln1); close(done1) }()
	go func() { s2.Serve(context.Background(), ln2); close(done2) }()

	nr := fleetnet.New([]string{ln1.Addr().String(), ln2.Addr().String()})
	nr.ShardSize = 2
	if err := fleet.FirstError(nr.Run(context.Background(), fleet.Config{Workers: 1, Seed: 5}, specJobs(4, true))); err != nil {
		t.Fatal(err)
	}
	s1.Shutdown()
	s2.Shutdown()
	<-done1
	<-done2

	// Goroutines unwind asynchronously after conns close; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
