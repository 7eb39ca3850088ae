// dfserve runs the simulation service: a multi-tenant HTTP API that
// compiles and simulates pipe-structured Val programs with admission
// control. Small jobs run inline on the request (fast path); large ones
// queue to a bounded worker pool driving the simulators.
// The job API mounts next to the telemetry surface, so one listener serves
// /jobs, /metrics, /runs, /healthz, and /debug/pprof.
//
// Usage:
//
//	dfserve [flags]
//
// Flags:
//
//	-http ADDR        listen address (default 127.0.0.1:8080)
//	-pool N           worker-pool size (default GOMAXPROCS)
//	-queue N          offload queue depth (default 256)
//	-offload COST     fast/offload cost threshold, cells x est. cycles
//	-sim-workers N    lane-sharding workers per offloaded batched exec job
//	-rate R           per-tenant admission rate, jobs/sec (0 = unlimited)
//	-burst N          per-tenant token-bucket burst (default 16)
//	-keep N           terminal jobs retained per tenant (default 64)
//	-max-cycles N     hard per-job simulation cycle cap
//	-job-timeout D    per-job wall-clock bound (e.g. 30s; 0 = none)
//	-cache-entries N  artifact-cache capacity in compiled programs (0 disables the cache)
//	-cache-bytes N    artifact-cache byte budget (default 256 MiB)
//	-smoke N          run the self-contained N-job load test and exit
//	-saturate         with -smoke: starve the pool so queue-wait SLOs burn
//	-version          print version and build info, then exit
//
// Observability is always on: every job records a span tree (GET
// /jobs/{id}/span, ?format=chrome for chrome://tracing), a bounded flight
// recorder keeps the most recent trees, admission decisions, and stall
// snapshots (GET /debug/flight; SIGQUIT dumps it to stderr without
// stopping the process), and an SLO engine evaluates burn rates over the
// outcome stream (staticpipe_slo_* families on /metrics).
//
// SIGINT/SIGTERM trigger a graceful drain: the listener stops accepting,
// in-flight requests and queued jobs finish (bounded by -job-timeout and
// a drain deadline), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"staticpipe/internal/artifact"
	"staticpipe/internal/buildinfo"
	"staticpipe/internal/obs"
	"staticpipe/internal/serve"
	"staticpipe/internal/telemetry"
)

func main() {
	var (
		httpAddr   = flag.String("http", "127.0.0.1:8080", "listen address")
		pool       = flag.Int("pool", 0, "worker-pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 256, "offload queue depth")
		offload    = flag.Int64("offload", 0, "fast/offload cost threshold (0 = default 1<<20, negative = offload everything)")
		simWorkers = flag.Int("sim-workers", 0, "lane-sharding workers per offloaded batched exec job")
		rate       = flag.Float64("rate", 0, "per-tenant admission rate, jobs/sec (0 = unlimited)")
		burst      = flag.Int("burst", 16, "per-tenant token-bucket burst")
		keep       = flag.Int("keep", 64, "terminal jobs retained per tenant")
		maxCycles  = flag.Int("max-cycles", 0, "per-job simulation cycle cap (0 = default)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job wall-clock bound (0 = none)")
		cacheEnt   = flag.Int("cache-entries", 256, "artifact-cache capacity in compiled programs (0 disables)")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "artifact-cache byte budget")
		smokeN     = flag.Int("smoke", 0, "run the self-contained N-job load test and exit")
		saturate   = flag.Bool("saturate", false, "with -smoke: starve the pool so queue-wait SLOs burn")
		version    = flag.Bool("version", false, "print version and build info")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	// Observability is not optional: every dfserve process records spans,
	// keeps a flight recorder, and evaluates SLO burn rates.
	flight := obs.NewFlight(0, 0, 0)
	slo := serve.DefaultSLOs()

	cfg := serve.Config{
		PoolWorkers:      *pool,
		QueueDepth:       *queue,
		OffloadThreshold: *offload,
		SimWorkers:       *simWorkers,
		TenantRate:       *rate,
		TenantBurst:      *burst,
		KeepFinished:     *keep,
		MaxCycles:        *maxCycles,
		JobTimeout:       *jobTimeout,
		Flight:           flight,
		SLO:              slo,
	}
	if *cacheEnt > 0 {
		cfg.Cache = artifact.New(artifact.Config{MaxEntries: *cacheEnt, MaxBytes: *cacheBytes})
	}

	if *smokeN > 0 {
		if err := smoke(*smokeN, cfg, *saturate); err != nil {
			fmt.Fprintln(os.Stderr, "smoke:", err)
			os.Exit(1)
		}
		fmt.Printf("smoke: %d jobs OK\n", *smokeN)
		return
	}

	reg := telemetry.NewRegistry().KeepFinished(*keep)
	cfg.Registry = reg
	svc := serve.New(cfg)
	mux := telemetry.NewMuxHealth(reg, svc.HealthStats, svc.WriteMetrics)
	svc.Register(mux)

	// SIGQUIT dumps the flight recorder to stderr and keeps serving — the
	// kill -QUIT incident workflow, without losing the process.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			fmt.Fprintln(os.Stderr, "dfserve: SIGQUIT — flight recorder dump:")
			if err := flight.Dump().WriteTo(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "dfserve: flight dump:", err)
			}
		}
	}()

	srv, err := telemetry.ServeHandler(*httpAddr, mux)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("dfserve listening on http://%s (POST /jobs; metrics at /metrics)\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Println("dfserve: draining...")

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "dfserve: http drain:", err)
	}
	if err := svc.Close(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "dfserve: pool drain:", err)
	}
	fmt.Println("dfserve: stopped")
}
