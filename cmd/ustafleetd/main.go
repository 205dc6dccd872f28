// Command ustafleetd is the fleet job service: a persistent HTTP daemon
// that accepts declarative scenario sweeps, runs them asynchronously on a
// fleet of worker daemons (or the in-process pool), and serves status,
// analytics and merged telemetry while they run.
//
//	ustafleetd -listen :8080 -hosts hostA:9000,hostB:9000
//
//	POST /jobs                  submit a scenario spec (JSON body) → {"id": ...}
//	GET  /jobs                  list submitted jobs, submission order
//	GET  /jobs/{id}             status, progress, and (when done) analytics
//	POST /jobs/{id}/cancel      abort a running job
//	GET  /jobs/{id}/telemetry   JSONL samples merged into submission order
//	GET  /jobs/{id}/events      SSE stream of live aggregate snapshots
//	GET  /metrics               Prometheus text exposition
//	GET  /fleet                 merged per-host recovery/saturation table
//	GET  /                      embedded live dashboard
//
// With -hosts, jobs dispatch through the remote coordinator to
// long-lived `ustaworker -listen` daemons, or to pipe workers spawned per
// job for "exec:" entries; without it they run on the local worker pool. Either way results are byte-identical. -admit-rate/-burst
// put a token bucket in front of POST /jobs (submissions beyond it get
// 429). SIGTERM/SIGINT drains: running jobs are cancelled, the HTTP
// listener closes, and the process exits 0.
//
// With -state-dir, every submission and each completed cell is journaled
// to a write-ahead log before it is acknowledged. After a crash (or a
// drain) a restart with the same -state-dir restores finished jobs'
// status and results and resumes interrupted sweeps, re-running only the
// cells the ledger is missing — final aggregates are byte-identical to an
// uninterrupted run. -job-deadline bounds each sweep's wall-clock time.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/durable"
	fleetnet "repro/internal/fleet/net"
)

func main() {
	// An "exec:" host re-executes this binary as a pipe worker.
	fleetnet.WorkerMain()
	var (
		listen   = flag.String("listen", "127.0.0.1:8080", "HTTP listen address for the job API")
		hosts    = flag.String("hosts", "", "comma-separated worker hosts: ustaworker -listen addresses, or exec:[<path>] pipe workers (empty: run jobs on the in-process pool)")
		workers  = flag.Int("workers", 0, "worker pool width per job (0 = GOMAXPROCS)")
		rate     = flag.Float64("admit-rate", 0, "admission token refill rate in jobs/sec (0 = always admit)")
		burst    = flag.Int("admit-burst", 1, "admission token bucket burst size")
		fallbk   = flag.Bool("local-fallback", false, "with -hosts: when every worker host stays down past the recovery deadline, finish the remaining jobs on the in-process pool instead of failing them")
		stateDir = flag.String("state-dir", "", "directory of per-job write-ahead logs; on restart, finished jobs are restored and interrupted sweeps resume from their completed-cell ledger (empty: in-memory only)")
		jobDeadl = flag.Duration("job-deadline", 0, "wall-clock deadline per submitted sweep, e.g. 30m (0: none)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "ustafleetd: ", log.LstdFlags)

	var runner fleet.Runner
	if *hosts != "" {
		hs := strings.Split(*hosts, ",")
		for i := range hs {
			hs[i] = strings.TrimSpace(hs[i])
		}
		nr := fleetnet.New(hs)
		nr.Logf = logger.Printf // includes the per-run RunnerStats snapshot line
		nr.FallbackLocal = *fallbk
		runner = nr
	} else if *fallbk {
		logger.Print("warning: -local-fallback has no effect without -hosts")
	}
	js := fleetnet.NewJobServer(runner)
	js.Workers = *workers
	js.Logf = logger.Printf
	js.JobDeadline = *jobDeadl
	if *rate > 0 {
		js.Admission = fleetnet.NewTokenBucket(*rate, *burst)
	}
	if *stateDir != "" {
		store, err := durable.OpenStore(*stateDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ustafleetd: state dir:", err)
			os.Exit(1)
		}
		js.Store = store
		// Replay the WAL before the listener opens: finished jobs answer
		// status queries again, interrupted sweeps resume immediately.
		if err := js.Recover(); err != nil {
			fmt.Fprintln(os.Stderr, "ustafleetd: recover:", err)
			os.Exit(1)
		}
		logger.Printf("state dir %s: recovery complete", *stateDir)
	}

	srv := &http.Server{Addr: *listen, Handler: js.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		logger.Print("draining: cancelling jobs, closing listener")
		js.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Printf("drain: http shutdown: %v", err)
		}
	}()

	logger.Printf("listening on %s (hosts: %s)", *listen, orDefault(*hosts, "in-process"))
	err := srv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ustafleetd:", err)
		os.Exit(1)
	}
	<-drained
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}
