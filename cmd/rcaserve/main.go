// Command rcaserve is a long-running HTTP/JSON service for
// register-constrained address computation. It fronts the concurrent
// batch allocation engine (package engine): requests fan out over a
// bounded worker pool, identical access patterns are answered from a
// canonicalized-pattern cache, and aggregate statistics are exported.
// Long-running work goes through the asynchronous job queue (package
// jobs): submissions are admission-controlled, dispatched by
// priority, tracked per job and retained in a TTL'd result store for
// polling.
//
// Endpoints:
//
//	POST   /v1/allocate    one job, synchronous (inline pattern or mini-C loop source)
//	POST   /v1/batch       many jobs in one request, synchronous
//	POST   /v1/jobs        submit async job(s): 202 + IDs, 429 when the queue is full
//	GET    /v1/jobs        paginated job listing (?state=&offset=&limit=)
//	GET    /v1/jobs/{id}   job status and result (404 unknown, 410 evicted)
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /v1/stats       engine + async-job + HTTP statistics
//	GET    /metrics        Prometheus text exposition
//	GET    /healthz        liveness probe (GET/HEAD)
//	GET    /debug/requests retained slow/error traces with phase breakdowns (?min_ms=&limit=)
//
// Every request carries a trace ID: a well-formed client-supplied
// X-Request-Id is honored, anything else gets a generated one; the ID
// is echoed in the X-Request-Id response header, attached to async
// job records, threaded through the engine's phase spans and reported
// by /debug/requests for requests that were slow or failed.
//
// Usage:
//
//	rcaserve [flags]
//
// Flags:
//
//	-addr string        listen address (default ":8080")
//	-timeout duration   per-job solve deadline (default 5s, 0 disables)
//	-queue int          async job queue capacity (default 1024)
//	-ttl duration       async result retention after completion (default 15m)
//	-node-id string     cluster node identity: tags async job IDs so the
//	                    rcagate gateway can route GET/DELETE /v1/jobs/{id}
//	                    back to this node (alphanumeric, empty = single-node)
//	-wal-dir string     write-ahead log directory for durable async jobs
//	                    (empty disables durability; on boot the log is
//	                    replayed: finished jobs restore their results,
//	                    unfinished ones re-enter the queue)
//	-wal-fsync string   WAL fsync policy: always, interval or off (default "interval")
//	-log-format string  structured log encoding: text or json (default "text")
//	-trace-min duration slow-trace capture threshold for /debug/requests
//	                    (default 10ms; negative captures every request)
//	-debug-addr string  optional second listener with net/http/pprof and
//	                    /debug/runtime (off by default; bind loopback only)
//	-faults string      arm chaos fault injection + /debug/soak (soak builds only)
//	-version            print the build version and exit
//
// Example:
//
//	rcaserve -addr :8080 &
//	curl -s localhost:8080/v1/jobs -d '{
//	    "pattern": {"offsets": [1, 0, 2, -1, 1, 0, -2]},
//	    "agu": {"registers": 1, "modifyRange": 1}
//	}'
//	curl -s localhost:8080/v1/jobs/<id>   # poll until "state": "done"
//
// The service shuts down gracefully on SIGINT/SIGTERM: the listener
// stops, in-flight requests get a drain window, then the job manager
// and engine pool are released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
	"dspaddr/internal/faults"
	"dspaddr/internal/jobs"
	"dspaddr/internal/wal"
)

// shutdownGrace is how long in-flight requests get to finish after a
// termination signal.
const shutdownGrace = 10 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rcaserve:", err)
		os.Exit(1)
	}
}

// run parses flags, starts the engine and serves until a termination
// signal arrives.
func run(args []string) error {
	fs := flag.NewFlagSet("rcaserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 5*time.Second, "per-job solve deadline (0 disables)")
	queueCap := fs.Int("queue", jobs.DefaultQueueCapacity, "async job queue capacity")
	ttl := fs.Duration("ttl", jobs.DefaultTTL, "async result retention after completion")
	walDir := fs.String("wal-dir", "", "write-ahead log directory for durable async jobs (empty = durability off)")
	walFsync := fs.String("wal-fsync", "interval", "WAL fsync policy: always, interval or off")
	nodeID := fs.String("node-id", "", "cluster node identity: tags async job IDs so a gateway can route them back (alphanumeric, max 32 chars; empty = single-node)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	traceMin := fs.Duration("trace-min", 0, "slow-trace capture threshold for /debug/requests (0 = 10ms default, negative captures everything)")
	debugAddr := fs.String("debug-addr", "", "optional second listener exposing net/http/pprof and /debug/runtime (bind loopback only)")
	faultSpec := fs.String("faults", "", "arm chaos fault injection and /debug/soak (e.g. \"delay=20ms:4,error=128\"; \"none\" = endpoint only); soak builds only")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("rcaserve", api.BuildVersion())
		return nil
	}

	if err := validateNodeID(*nodeID); err != nil {
		return err
	}

	logger, err := api.NewLogger(*logFormat)
	if err != nil {
		return err
	}

	var injector *faults.Injector
	if *faultSpec != "" {
		var err error
		if injector, err = faults.Parse(*faultSpec); err != nil {
			return err
		}
		logger.Warn("FAULT INJECTION ARMED — this is a soak/chaos build, not a production configuration",
			"faults", injector.String())
	}

	// The bundle exists before the WAL so boot replay is timed.
	ob := newObservability(logger, *traceMin, 0)

	eng := engine.New(engine.Options{
		JobTimeout: *timeout,
		Faults:     injector,
	})
	defer eng.Close()

	// The WAL opens (and replays) before the server exists: recovered
	// jobs must be queued ahead of the listener accepting new ones.
	var walLog *wal.Log
	var recovered []wal.JobState
	if *walDir != "" {
		policy, err := wal.ParseFsyncPolicy(*walFsync)
		if err != nil {
			return err
		}
		var rep *wal.Replay
		walLog, rep, err = wal.Open(*walDir, wal.Options{
			Fsync:      policy,
			Retention:  *ttl,
			Faults:     injector,
			AppendHist: ob.walAppendHist,
			FsyncHist:  ob.walFsyncHist,
			ReplayHist: ob.walReplayHist,
		})
		if err != nil {
			return fmt.Errorf("wal: open %s: %w", *walDir, err)
		}
		recovered = rep.Jobs
		logger.Info("wal replayed",
			"dir", *walDir, "fsync", policy.String(),
			"segments", rep.Segments, "records", rep.Records,
			"requeued", rep.JobsRequeued, "terminal", rep.JobsTerminal,
			"tornBytes", rep.TornBytes, "segmentsDropped", rep.SegmentsDropped,
			"elapsedMicros", rep.ElapsedMicros)
		if rep.TornBytes > 0 || rep.SegmentsDropped > 0 {
			logger.Warn("wal recovered from damage by truncation",
				"tornBytes", rep.TornBytes, "segmentsDropped", rep.SegmentsDropped)
		}
	}

	s := newServer(eng, serverOptions{
		queueCapacity: *queueCap,
		ttl:           *ttl,
		version:       api.BuildVersion(),
		nodeID:        *nodeID,
		faults:        injector,
		obs:           ob,
		wal:           walLog,
		recovered:     recovered,
	})
	defer s.close()

	if *debugAddr != "" {
		startDebugListener(*debugAddr, logger)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			"version", api.BuildVersion(), "addr", *addr,
			"workers", eng.Stats().Workers, "timeout", *timeout,
			"queue", *queueCap, "ttl", *ttl)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}

	logger.Info("shutting down", "grace", shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// Drain the async backlog inside the same grace window: in-flight
	// jobs finish (or are aborted with ErrShutdown as their recorded
	// reason) before the manager closes, so an exiting process never
	// strands a job in a non-terminal state — the property the soak
	// harness's restart cycles assert from outside.
	s.drain(shutdownCtx)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// validateNodeID enforces the -node-id grammar: job IDs embed the tag
// between '-' separators, so it must be non-empty alphanumeric and
// short enough to keep IDs readable.
func validateNodeID(id string) error {
	if id == "" {
		return nil
	}
	if len(id) > 32 {
		return fmt.Errorf("-node-id %q too long (max 32 chars)", id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		default:
			return fmt.Errorf("-node-id %q must be alphanumeric", id)
		}
	}
	return nil
}

// startDebugListener serves net/http/pprof plus a runtime snapshot on
// a second address, kept off the serving listener so profiling can be
// firewalled separately. Routes are registered explicitly rather than
// importing pprof for its DefaultServeMux side effect.
func startDebugListener(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", func(w http.ResponseWriter, r *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		api.WriteJSON(w, http.StatusOK, map[string]any{
			"goroutines":        runtime.NumGoroutine(),
			"heapAllocBytes":    ms.HeapAlloc,
			"heapSysBytes":      ms.HeapSys,
			"gcPauseTotalNanos": ms.PauseTotalNs,
			"numGC":             ms.NumGC,
			"openFDs":           countOpenFDs(),
			"rssBytes":          readRSSBytes(),
		})
	})
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		logger.Info("debug listener on", "addr", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("debug listener failed", "err", err)
		}
	}()
}
