// Command mohecod is the yield-service daemon: a long-lived HTTP server
// that runs yield estimates and full optimizations from the scenario
// registry on a bounded job pool, dedupes identical and in-flight requests
// through a canonical-key result cache, and streams job progress over SSE.
//
// Usage:
//
//	mohecod [-addr :8650] [-workers N] [-jobs N] [-cache N] [-queue N] [-quiet]
//	        [-loglevel debug|info|warn] [-debug-addr ADDR]
//	        [-coordinator] [-join URL[,URL...]] [-node NAME] [-advertise URL]
//	        [-lease DUR] [-heartbeat DUR] [-shard N] [-no-self-work]
//	        [-drain DUR]
//
// Fleet mode: `-coordinator` makes the daemon split yield jobs into
// deterministic chunk-range shards and serve them to pull-based workers on
// /v1/shards; `-join` makes it a worker of the coordinator at URL (while
// still answering its own API locally). A worker that also passes
// `-advertise` with its own reachable URL receives replicated fleet state
// and stands in the hand-off election should the coordinator die — the
// surviving node with the lowest name promotes itself and resumes
// unfinished jobs. Sharded results are bit-identical to single-node runs,
// hand-off or not — see DESIGN.md, "Distributed fleet" and "Failure
// model".
//
// Endpoints (see internal/service):
//
//	POST   /v1/yield            submit a yield-estimate job (?wait blocks)
//	POST   /v1/optimize         submit an optimization job (?wait blocks)
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        job status + result (?wait=DUR long-polls)
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/jobs/{id}/trace  the job's span record (queue → shards → done)
//	GET    /v1/scenarios        the scenario registry
//	GET    /v1/fleet/status     fleet topology + per-peer throughput
//	GET    /healthz             liveness + counters
//	GET    /metrics             Prometheus scrape (?fleet=1 merges peers on a coordinator)
//	GET    /debug/vars          the same metrics as flat JSON
//
// The CLIs' client submits with ?wait=10s, so a short job costs one HTTP
// exchange, and long-polls GET /v1/jobs/{id}?wait=10s only when that wait
// expires. A ?wait submission that creates a job names it in a 103 Early
// Hints interim response (Location) before it waits, so the client can
// DELETE the job if its caller gives up; a dropped connection alone
// cancels nothing, and the client's retry coalesces onto the running job.
//
// -debug-addr additionally serves net/http/pprof (plus /metrics and
// /debug/vars) on a separate listener, so CPU/heap profiles of a live
// daemon never travel over — or open up — the public API port.
//
// Served results are bit-identical to the local CLIs at the same request:
// `yieldest -server` and `mohecorun -server` run against a shared daemon
// with no change in output. SIGINT/SIGTERM shut the daemon down cleanly
// (exit code 0): a fleet node first drains — stops leasing new shards,
// finishes and reports the shards it holds, deregisters from its
// coordinator so the peer table drops it immediately — then cancels its
// own jobs and exits. `-drain` bounds the drain wait.
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
	"syscall"
	"time"

	_ "github.com/eda-go/moheco" // link the circuit registry
	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/profiling"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8650", "HTTP listen address")
		workers = flag.Int("workers", 0, "simulation goroutines per running job (0 = GOMAXPROCS; results are identical)")
		jobs    = flag.Int("jobs", 0, "concurrently running jobs (0 = 2)")
		cache   = flag.Int("cache", 0, "completed jobs retained for result reuse (0 = 256)")
		queue   = flag.Int("queue", 0, "pending-job queue bound (0 = 256)")
		quiet   = flag.Bool("quiet", false, "suppress per-job log lines")
		level   = flag.String("loglevel", "info", "log verbosity: debug (per-shard chatter) | info | warn")
		debug   = flag.String("debug-addr", "", "serve net/http/pprof + /metrics on this extra listener (empty = off)")

		coordinator = flag.Bool("coordinator", false, "schedule yield jobs as fleet shards served on /v1/shards")
		join        = flag.String("join", "", "coordinator URL(s, comma-separated failover list) to join as a worker")
		node        = flag.String("node", "", "this node's fleet name (default <role>-<pid>)")
		advertise   = flag.String("advertise", "", "URL peers reach this node at; makes a worker electable for coordinator hand-off")
		lease       = flag.Duration("lease", 0, "shard lease before re-dispatch to a surviving node (0 = 15s)")
		heartbeat   = flag.Duration("heartbeat", 0, "worker heartbeat period (0 = 2s)")
		shard       = flag.Int("shard", 0, "target shard size in samples, rounded up to whole chunks (0 = 8192)")
		noSelfWork  = flag.Bool("no-self-work", false, "coordinator only dispatches, never executes shards itself")
		drain       = flag.Duration("drain", 30*time.Second, "max wait for in-flight shards to finish on SIGTERM")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mohecod [flags]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\n%s", scenario.Usage())
	}
	flag.Parse()

	if *coordinator && *join != "" {
		fmt.Fprintln(os.Stderr, "mohecod: -coordinator and -join are mutually exclusive (a coordinator is already a node of its own fleet)")
		os.Exit(2)
	}

	logLevel, err := obs.ParseLevel(*level)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mohecod:", err)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "mohecod: ", log.LstdFlags)
	cfg := service.Config{
		Workers:   *workers,
		Jobs:      *jobs,
		QueueSize: *queue,
		CacheSize: *cache,
		LogLevel:  logLevel,
		Fleet: service.FleetConfig{
			Coordinator:  *coordinator,
			Join:         *join,
			Node:         *node,
			AdvertiseURL: *advertise,
			Lease:        *lease,
			Heartbeat:    *heartbeat,
			ShardSamples: *shard,
			NoSelfWork:   *noSelfWork,
		},
	}
	if !*quiet {
		cfg.Log = logger
	}
	svc := service.New(cfg)

	var debugSrv *http.Server
	if *debug != "" {
		// The service instruments itself into obs.Default(), so the debug
		// listener's /metrics is the same registry the API port serves.
		debugSrv, err = profiling.Serve(*debug, obs.Default())
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("debug listener (pprof, metrics) on %s", *debug)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fleet := svc.Fleet()
		logger.Printf("serving %d scenarios on %s (%s %q)", len(scenario.Names()), *addr, fleet.Role, fleet.Node)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// Listen failed before any shutdown request.
		logger.Fatal(err)
	case <-ctx.Done():
	}
	logger.Printf("shutting down")
	// Drain the fleet side first: stop leasing new shards, let the shards
	// this node holds finish and report their counts (abandoning them would
	// only cost the fleet a lease-expiry wait, but finishing is free work),
	// and deregister from the coordinator so a clean exit does not read as
	// a crash. Single-node servers drain instantly.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	if err := svc.Drain(drainCtx); err != nil {
		logger.Printf("drain: %v", err)
	}
	cancelDrain()
	// Then close the service: it cancels every live job, which unblocks
	// ?wait long-polls and ends SSE streams, so the HTTP drain below does
	// not sit on open streams until its deadline.
	svc.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	logger.Printf("clean shutdown (%d simulations served)", svc.Sims())
}
