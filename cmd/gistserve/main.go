// Command gistserve runs the multi-tenant training job server: an
// HTTP/JSON daemon that admits concurrent training jobs against a global
// memory budget using the Gist planner's footprint predictions, degrades
// or queues jobs under pressure, and drives each through the full
// submit / pause / checkpoint / resume / cancel lifecycle.
//
// Quickstart:
//
//	gistserve -addr :8080 -mem-budget 268435456 -flightrec-dir /tmp/flightrec &
//	curl -s -X POST localhost:8080/jobs -d '{"name":"a","network":"tinycnn","steps":200,"encoding":"fp16"}'
//	curl -s -X POST localhost:8080/jobs -d '{"name":"b","steps":200,"encoding":"fp16","technique":"adaptive"}'
//	curl -s localhost:8080/jobs/j0001
//	curl -s localhost:8080/metrics              # Prometheus exposition
//	curl -sN localhost:8080/jobs/j0001/stream   # live SSE step stream
//	curl -s -X POST localhost:8080/jobs/j0001/cancel
//	curl -s localhost:8080/healthz
//
// SIGQUIT dumps every job's flight record to -flightrec-dir without
// stopping the server; -debug-addr serves net/http/pprof on a separate
// listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gist/internal/debugz"
	"gist/internal/server"
	"gist/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		memBudget = flag.Int64("mem-budget", 1<<30, "global admission budget in bytes")
		maxJobs   = flag.Int("max-jobs", 4, "max concurrently running jobs")
		queue     = flag.Int("queue", 64, "admission queue limit")
		stall     = flag.Duration("stall-timeout", 30*time.Second, "watchdog: quarantine a job with no step progress for this long")
		ckptDir   = flag.String("ckpt-dir", "", "checkpoint directory (default: a fresh temp dir)")
		ckptEvery = flag.Int("ckpt-every", 25, "default periodic checkpoint interval in steps")
		spillDir  = flag.String("spill-dir", "", "stash-store spill directory for jobs with a stash_budget (default: the checkpoint dir)")
		stashCap  = flag.Int64("stash-budget", 0, "default per-job in-RAM stash byte cap for jobs that set none (0 = all in RAM)")
		workers   = flag.Int("workers", 0, "codec worker pool shared by all jobs (0 = the process-wide GOMAXPROCS pool)")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown drain timeout")
		flightDir = flag.String("flightrec-dir", "", "flight recorder dump directory (empty = recorder off)")
		flightCap = flag.Int("flightrec-events", 0, "flight recorder ring size per job (0 = default)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Parse()

	if bound, stopDebug, err := debugz.Serve(*debugAddr); err != nil {
		log.Fatalf("gistserve: debug listener: %v", err)
	} else if bound != "" {
		defer stopDebug()
		log.Printf("gistserve: pprof on http://%s/debug/pprof/", bound)
	}

	tel := telemetry.New()
	srv, err := server.New(server.Config{
		MemBudgetBytes:  *memBudget,
		MaxRunning:      *maxJobs,
		QueueLimit:      *queue,
		StallTimeout:    *stall,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		SpillDir:        *spillDir,
		StashBudget:     *stashCap,
		Workers:         *workers,
		Telemetry:       tel,
		FlightRecDir:    *flightDir,
		FlightRecEvents: *flightCap,
	})
	if err != nil {
		log.Fatalf("gistserve: %v", err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("gistserve: listening on %s (budget %d bytes, %d slots)", *addr, *memBudget, *maxJobs)

	// SIGQUIT is the live postmortem trigger: dump every job's flight
	// record and keep serving.
	if *flightDir != "" {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				n := srv.DumpFlightRecords("sigquit")
				log.Printf("gistserve: SIGQUIT: dumped %d flight records to %s", n, *flightDir)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("gistserve: %v", err)
	case got := <-sig:
		log.Printf("gistserve: %v, draining (up to %v)", got, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("gistserve: drain incomplete: %v", err)
		os.Exit(1)
	}
	h := srv.Health()
	fmt.Printf("gistserve: drained; peak %d / %d budget bytes, %d jobs served\n",
		h.PeakBytes, h.BudgetBytes, h.Jobs)
}
