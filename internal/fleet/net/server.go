// Package net is the fleet's one remote-execution path: a fleet.Runner
// that ships shards of spec-carrying jobs to worker processes as the
// versioned length-prefixed frames of internal/fleet/wire, over one of
// two transports chosen per Hosts entry — TCP to a long-lived daemon
// ("host:port"), or the stdin/stdout pipes of a worker subprocess it
// spawns ("exec:" re-executes the current binary, "exec:<path>" a built
// ustaworker). Three layers live here:
//
//   - Server: the worker. It answers a hello handshake (protocol version +
//     shard capacity), executes ShardRequest frames on the in-process
//     LocalRunner, streams sample/result frames back, and pulses
//     heartbeats while a shard runs. `ustaworker -listen addr` serves it
//     on TCP; ServeStdio (`ustaworker` without -listen, or WorkerMain in a
//     re-executed binary) serves it on the process's stdio.
//   - Runner: the coordinator, over a static host inventory with liveness
//     (heartbeat read deadlines), per-worker in-flight caps,
//     retry-on-worker-loss that re-dispatches only the unreported jobs of
//     a lost shard, circuit breakers and hedging.
//     After a transport is chosen, both run the same code. Seeds are
//     resolved coordinator-side through fleet.EffectiveSeed, so a remote
//     run is byte-identical to LocalRunner — even after a worker dies
//     mid-shard and its jobs are retried elsewhere.
//   - JobServer: a persistent submit/poll/cancel HTTP job service
//     (`ustafleetd`) whose telemetry endpoint streams JSONL merged into
//     submission order by Bus.
package net

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
)

// DefaultHeartbeatInterval is how often a busy worker pulses a heartbeat
// frame. The coordinator's default read deadline is several intervals, so
// one delayed pulse never kills a healthy worker.
const DefaultHeartbeatInterval = 2 * time.Second

// Server is the worker: the daemon protocol over TCP connections (Serve)
// or one stdio pipe pair (ServeStdio). The zero value is usable; Capacity
// and HeartbeatInterval default at serve time.
type Server struct {
	// Capacity is the daemon's concurrent-shard limit, advertised in the
	// hello handshake and enforced with a semaphore across connections
	// (<= 0: GOMAXPROCS). The coordinator opens at most Capacity
	// simultaneous dispatch slots per host.
	Capacity int
	// HeartbeatInterval is the pulse period while a shard executes
	// (<= 0: DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// Logf, when set, receives one line per connection-level event (accept,
	// shard served, protocol error). Nil is silent.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	ln       stdnet.Listener
	conns    map[stdnet.Conn]struct{}
	draining bool
	wg       sync.WaitGroup

	// The last decoded predictor and its wire bytes: every item of a run
	// ships the same predictor, so it is decoded once, not once per item.
	predMu  sync.Mutex
	predRaw []byte
	pred    *core.Predictor
}

// predictor decodes a shard request's predictor, reusing the previous
// request's when the bytes match. A predictor is read-only once trained,
// so concurrent shards can share it, as in-process runs do.
func (s *Server) predictor(raw []byte) (*core.Predictor, error) {
	s.predMu.Lock()
	defer s.predMu.Unlock()
	if s.predRaw != nil && bytes.Equal(raw, s.predRaw) {
		return s.pred, nil
	}
	p, err := wire.DecodePredictor(raw)
	if err != nil {
		return nil, err
	}
	s.predRaw, s.pred = raw, p
	return p, nil
}

// capacity resolves the advertised concurrent-shard limit.
func (s *Server) capacity() int { return fleet.NormalizeWorkers(s.Capacity) }

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ListenAndServe binds addr and serves until ctx is cancelled or Shutdown
// is called; the listen address becomes visible through Addr once bound.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Addr reports the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until ctx is cancelled or Shutdown is
// called, then waits for in-flight shards to finish. It returns nil on a
// clean shutdown.
func (s *Server) Serve(ctx context.Context, ln stdnet.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("net: server already serving")
	}
	s.ln = ln
	s.mu.Unlock()

	// Shard executions across all connections share one capacity-wide
	// semaphore; extra connections queue instead of oversubscribing.
	sem := make(chan struct{}, s.capacity())

	stop := context.AfterFunc(ctx, func() { s.Shutdown() })
	defer stop()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			s.wg.Wait()
			if draining || ctx.Err() != nil {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		go func() {
			defer s.untrack(conn)
			s.handleConn(ctx, conn, sem)
		}()
	}
}

// serveConn serves one already-open connection — the stdio pipe pair —
// until the peer closes it, ctx is cancelled or Shutdown is called.
func (s *Server) serveConn(ctx context.Context, conn stdnet.Conn) {
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	stop := context.AfterFunc(ctx, func() { s.Shutdown() })
	defer stop()
	s.handleConn(ctx, conn, make(chan struct{}, s.capacity()))
}

// track registers a connection for Shutdown; false once draining.
func (s *Server) track(conn stdnet.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[stdnet.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

// untrack closes a served connection and releases its Shutdown wait.
func (s *Server) untrack(conn stdnet.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.wg.Done()
}

// Shutdown drains the daemon gracefully: stop accepting, let every
// in-flight shard finish and flush its frames, then close the connections.
// Safe to call concurrently and repeatedly.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Idle connections sit in a blocking read with no shard to finish;
	// close them so their handlers return. Busy handlers notice draining
	// after the in-flight shard completes.
	s.mu.Lock()
	for conn := range s.conns {
		if cr, ok := conn.(interface{ CloseRead() error }); ok {
			cr.CloseRead()
		} else {
			conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// inFrame is one read outcome from a connection's reader goroutine: a
// frame, or the error that ended the stream.
type inFrame struct {
	f   *wire.Frame
	err error
}

// handleConn speaks the daemon side of the protocol on one connection:
// hello, then a sequence of shard requests, each answered with streamed
// sample/result frames, heartbeats while busy, and a done (or error)
// frame. A cancel frame aborts the in-flight shard; a closed connection
// does the same (the coordinator is gone — stop burning cores).
//
// All reads flow through one reader goroutine feeding a channel, so the
// mid-shard cancel watcher and the between-shards request loop never
// contend for the stream (a polled read deadline could desync the frame
// boundary by timing out mid-frame).
func (s *Server) handleConn(ctx context.Context, conn stdnet.Conn, sem chan struct{}) {
	var wmu sync.Mutex
	write := func(f *wire.Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		return wire.WriteFrame(conn, f)
	}
	if err := write(&wire.Frame{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.HelloFrame{Proto: wire.Version, Capacity: s.capacity()}}); err != nil {
		s.logf("net: %s: hello: %v", conn.RemoteAddr(), err)
		return
	}

	frames := make(chan inFrame)
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		defer close(frames)
		for {
			f, err := wire.ReadFrame(conn)
			select {
			case frames <- inFrame{f, err}:
			case <-connDone:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	hb := s.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeatInterval
	}
	for {
		var in inFrame
		var ok bool
		select {
		case in, ok = <-frames:
			if !ok {
				return
			}
		case <-ctx.Done():
			return
		}
		if in.err != nil {
			if !errors.Is(in.err, io.EOF) && !errors.Is(in.err, stdnet.ErrClosed) && !errors.Is(in.err, io.ErrUnexpectedEOF) {
				// A malformed frame is a protocol violation, not a crash:
				// report it and drop the connection.
				write(&wire.Frame{V: wire.Version, Type: wire.TypeError, Err: in.err.Error()})
				s.logf("net: %s: %v", conn.RemoteAddr(), in.err)
			}
			return
		}
		switch in.f.Type {
		case wire.TypeCancel, wire.TypeHeartbeat:
			// Nothing in flight; ignore.
			continue
		case wire.TypeShard:
		default:
			write(&wire.Frame{V: wire.Version, Type: wire.TypeError,
				Err: fmt.Sprintf("expected a %s frame, got %s", wire.TypeShard, in.f.Type)})
			s.logf("net: %s: unexpected %s frame", conn.RemoteAddr(), in.f.Type)
			return
		}

		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		err := s.serveShard(ctx, in.f.Shard, write, frames, hb)
		<-sem
		if err != nil {
			if werr := write(&wire.Frame{V: wire.Version, Type: wire.TypeError, Err: err.Error()}); werr != nil {
				return
			}
			s.logf("net: %s: shard failed: %v", conn.RemoteAddr(), err)
			continue
		}
		if err := write(&wire.Frame{V: wire.Version, Type: wire.TypeDone}); err != nil {
			return
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
	}
}

// serveShard executes one shard with heartbeats pulsing and a concurrent
// watcher consuming the connection's frame channel for cancel requests (a
// read error there means the coordinator vanished — same response: cancel
// the shard).
func (s *Server) serveShard(ctx context.Context, req *wire.ShardRequest, write func(*wire.Frame) error, frames <-chan inFrame, hb time.Duration) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The worker splits its own cores across its capacity when the
	// coordinator left the pool width unset: a remote coordinator cannot
	// know this host's GOMAXPROCS.
	if req.Workers <= 0 {
		req.Workers = (runtime.GOMAXPROCS(0) + s.capacity() - 1) / s.capacity()
	}

	// Heartbeat pulse: keeps the coordinator's read deadline fed through
	// long, telemetry-free stretches of a shard.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if write(&wire.Frame{V: wire.Version, Type: wire.TypeHeartbeat}) != nil {
					cancel()
					return
				}
			case <-done:
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case in, ok := <-frames:
				if !ok || in.err != nil {
					// During a graceful drain, Shutdown closes the read side
					// of every connection — that must not abort the in-flight
					// shard (a dead coordinator still surfaces as write
					// failures). Outside a drain, a lost read side means the
					// coordinator is gone: stop burning cores.
					if !s.isDraining() {
						cancel()
					}
					return
				}
				if in.f.Type == wire.TypeCancel {
					cancel()
					return
				}
				// Any other frame mid-shard is out of protocol; tolerate it
				// rather than corrupting a running shard.
			case <-done:
				return
			}
		}
	}()

	err := s.serveRequest(runCtx, req, write)

	close(done)
	wg.Wait()
	if err == nil && runCtx.Err() != nil && ctx.Err() == nil {
		// The coordinator cancelled or vanished mid-shard; per-job context
		// errors already streamed (best effort). Surface it as a shard-level
		// error frame instead of a done frame.
		return runCtx.Err()
	}
	return err
}

// serveRequest executes one already-decoded shard request, streaming sample
// and result frames through write (which must serialize access to the
// underlying stream). Request-level failures — an undecodable predictor, a
// broken transport — return a non-nil error for the caller to encode;
// per-job failures travel as individual result frames and leave the shard
// alive. A cancelled ctx degrades to per-job context errors on the
// unfinished jobs, exactly like the local runner; the done (or error)
// frame stays the caller's responsibility.
func (s *Server) serveRequest(ctx context.Context, req *wire.ShardRequest, write func(*wire.Frame) error) error {
	pred, err := s.predictor(req.Predictor)
	if err != nil {
		return err
	}
	canonicalizeDevices(req.Jobs)

	// Materialize the runnable jobs; specs that fail report immediately as
	// per-job errors and stay out of the batch.
	jobs := make([]fleet.Job, 0, len(req.Jobs))
	global := make([]int, 0, len(req.Jobs)) // local batch index → global index
	for i := range req.Jobs {
		spec := &req.Jobs[i]
		job, merr := wire.Materialize(*spec, pred)
		if merr != nil {
			rf := &wire.ResultFrame{Index: spec.Index, Name: spec.Name, User: spec.User, Err: merr.Error()}
			if rf.Name == "" {
				rf.Name = spec.Workload.Name
			}
			if err := write(&wire.Frame{V: wire.Version, Type: wire.TypeResult, Result: rf}); err != nil {
				return err
			}
			continue
		}
		jobs = append(jobs, job)
		global = append(global, spec.Index)
	}

	crashOn, crashArmed := crashIndex()
	cfg := fleet.Config{Workers: req.Workers, Event: device.EventMode(req.Event)}
	var remote *sink.Remote
	if req.WantSamples {
		remote = wire.SampleWriter(write, func(id sink.JobID) int { return global[int(id)] })
		cfg.Sink = remote
	}
	var mu sync.Mutex
	var resErr error
	cfg.OnResult = func(res fleet.JobResult) {
		// Stream each result as it completes so the coordinator's progress
		// is live and a crash loses only unreported jobs.
		idx := global[res.Index]
		rf := wire.EncodeResult(res)
		rf.Index = idx
		err := write(&wire.Frame{V: wire.Version, Type: wire.TypeResult, Result: rf})
		mu.Lock()
		if err != nil && resErr == nil {
			resErr = err
		}
		mu.Unlock()
		if crashArmed && idx == crashOn {
			os.Exit(3)
		}
	}
	fleet.LocalRunner{}.Run(ctx, cfg, jobs)
	mu.Lock()
	err = resErr
	mu.Unlock()
	if err != nil {
		return err
	}
	if remote != nil {
		if err := remote.Close(); err != nil {
			return fmt.Errorf("telemetry stream: %w", err)
		}
	}
	return nil
}

// canonicalizeDevices aliases value-identical device configurations to
// one pointer. JSON decoding gives every spec its own Device copy, but the
// local runner's phone pool is keyed by the Job.Device pointer — without
// re-aliasing, a shard sweeping one configuration would never reuse a
// phone and lose the pool's allocation win. Shards carry few distinct
// configurations (one per scenario workload × ambient row), so the
// quadratic-in-unique-configs scan is cheap.
func canonicalizeDevices(specs []fleet.JobSpec) {
	var uniq []*device.Config
	for i := range specs {
		d := specs[i].Device
		if d == nil {
			continue
		}
		matched := false
		for _, u := range uniq {
			if reflect.DeepEqual(*u, *d) {
				specs[i].Device = u
				matched = true
				break
			}
		}
		if !matched {
			uniq = append(uniq, d)
		}
	}
}

// crashIndex reads the fault-injection env knob. It is honored only when
// the worker is a Go test binary, so a stray environment variable can
// never kill production workers (the runner forwards its whole
// environment to every worker it spawns).
func crashIndex() (int, bool) {
	if !strings.HasSuffix(os.Args[0], ".test") {
		return 0, false
	}
	v := os.Getenv(crashEnv)
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}
