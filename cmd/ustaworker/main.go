// Command ustaworker executes fleet shards for a coordinator. It speaks
// one protocol — hello handshake, shard frames, heartbeats, cancel — over
// one of two transports:
//
//   - Pipe mode (default): serve the coordinator that spawned this
//     process over stdin/stdout, with capacity 1. A coordinator lists it
//     as an "exec:<path>" host (repro.NewNetRunner, ustasim -hosts,
//     ustafleetd -hosts) to decouple its own binary from the worker's.
//     Coordinator and worker must come from the same build: the hello
//     handshake checks the wire protocol version.
//   - Daemon mode (-listen host:port): a long-lived TCP worker serving
//     shard requests from a networked coordinator (repro.NewNetRunner /
//     ustasim -hosts / ustafleetd -hosts). The daemon advertises its
//     -capacity in a hello handshake and executes up to that many shards
//     concurrently, across any number of connections.
//
// Both modes run on the same server and shut down the same way on
// SIGTERM/SIGINT. A coordinator watching a draining worker sees its
// connection close between shards, marks the host lost, and re-dispatches
// elsewhere.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fleet/net"
)

func main() {
	var (
		listen   = flag.String("listen", "", "serve shards as a TCP daemon on this host:port (empty: serve the spawning coordinator over stdin/stdout)")
		capacity = flag.Int("capacity", 0, "daemon mode: concurrent shard limit advertised to coordinators (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "log connection and shard events to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var logf func(string, ...any)
	if *verbose {
		logf = log.New(os.Stderr, "ustaworker: ", log.LstdFlags).Printf
	}
	if *listen == "" {
		net.ServeStdio(ctx, logf)
		return
	}
	s := &net.Server{Capacity: *capacity, Logf: logf}
	if err := s.ListenAndServe(ctx, *listen); err != nil {
		fmt.Fprintln(os.Stderr, "ustaworker:", err)
		os.Exit(1)
	}
}
