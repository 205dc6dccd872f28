package shard

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
)

// workerEnv marks a process as a shard worker. The coordinator sets it on
// every worker it spawns; Main checks it.
const workerEnv = "USTA_SHARD_WORKER"

// crashEnv is a test-only fault injector: a worker exits abruptly (code 3,
// no done frame) right after reporting the job with this global index. The
// failure-path tests use it to simulate a worker crash mid-shard.
const crashEnv = "USTA_SHARD_CRASH_ON_INDEX"

// IsWorker reports whether this process was spawned as a shard worker.
func IsWorker() bool { return os.Getenv(workerEnv) == "1" }

// Main serves one shard over stdin/stdout and exits, when the current
// process was spawned as a shard worker; otherwise it is a no-op. Call it
// at the top of main() — before flag parsing — in any binary that
// coordinates shard runs with the default self-exec Command (cmd/ustasim
// does), and in TestMain of packages whose tests shard.
func Main() {
	if !IsWorker() {
		return
	}
	if err := Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// Serve handles one shard request read from r: it materializes the specs,
// runs them on the in-process LocalRunner, and streams sample and result
// frames to w, ending with a done frame. Request-level failures (malformed
// frame, undecodable predictor) produce an error frame and a non-nil
// return; per-job failures (bad spec, bad device config) travel as
// individual result frames and leave the shard alive.
func Serve(r io.Reader, w io.Writer) error {
	var wmu sync.Mutex // one stream, many writers (samples + results)
	write := func(f *wire.Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		return wire.WriteFrame(w, f)
	}
	fail := func(err error) error {
		write(&wire.Frame{V: wire.Version, Type: wire.TypeError, Err: err.Error()})
		return err
	}
	f, err := wire.ReadFrame(r)
	if err != nil {
		return fail(fmt.Errorf("read request: %w", err))
	}
	if f.Type != wire.TypeShard {
		return fail(fmt.Errorf("expected a %s frame, got %s", wire.TypeShard, f.Type))
	}
	if err := ServeRequest(context.Background(), f.Shard, write); err != nil {
		return fail(err)
	}
	return write(&wire.Frame{V: wire.Version, Type: wire.TypeDone})
}

// ServeRequest executes one already-decoded shard request, streaming sample
// and result frames through write (which must serialize access to the
// underlying stream). It is the execution core shared by the pipe worker
// (Serve) and the TCP daemon (internal/fleet/net): request-level failures —
// an undecodable predictor, a broken transport — return a non-nil error for
// the caller to encode; per-job failures travel as individual result frames
// and leave the shard alive. A cancelled ctx degrades to per-job context
// errors on the unfinished jobs, exactly like the local runner; the done
// (or error) frame stays the caller's responsibility.
func ServeRequest(ctx context.Context, req *wire.ShardRequest, write func(*wire.Frame) error) error {
	pred, err := wire.DecodePredictor(req.Predictor)
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
// never kill production workers (the coordinator forwards its whole
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
