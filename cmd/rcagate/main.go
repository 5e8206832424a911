// Command rcagate is the cluster-mode gateway: a thin stateless
// router that terminates the full rcaserve /v1 API at one address and
// spreads the work over a fleet of rcaserve nodes on a consistent-
// hash ring (package cluster).
//
// Synchronous jobs route by the engine's canonical routing digest, so
// identical campaigns — including translated twins the result cache
// folds together — always land on the same node and reuse its warm
// cache. Async job IDs carry the admitting node's -node-id tag, so
// GET/DELETE /v1/jobs/{id} route back to the owner regardless of
// later ring movements. /v1/stats and /metrics aggregate across the
// fleet; /healthz answers 200 while any node is up.
//
// Nodes must run with -node-id matching their name in -nodes.
//
// Usage:
//
//	rcagate -nodes n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082 [flags]
//
// Flags:
//
//	-addr string              listen address (default ":8090")
//	-nodes string             fleet members as name=url pairs, comma separated (required)
//	-vnodes int               virtual nodes per member on the ring (default 128)
//	-probe-interval duration  health-check cadence (default 500ms)
//	-probe-timeout duration   per-probe timeout (default 1s)
//	-fail-threshold int       consecutive failures before mark-down (default 2)
//	-forward-timeout duration per-hop forwarding timeout (default 30s)
//	-breaker-disable          turn per-node circuit breakers off
//	-breaker-window int       breaker rolling outcome window per node (default 32)
//	-breaker-min-samples int  minimum outcomes before a breaker may trip (default 8)
//	-breaker-error-rate float window failure fraction that trips a breaker (default 0.5)
//	-breaker-latency-quantile float  window latency quantile the slow trip
//	                          evaluates (default 0.9)
//	-breaker-latency-threshold duration  latency at the quantile that trips a
//	                          breaker (default 250ms; negative disables the slow trip)
//	-breaker-open-for duration  open-state hold before half-opening (default 2s)
//	-breaker-half-open-every duration  half-open trickle interval (default 250ms)
//	-breaker-close-after int  consecutive fast successes that close a
//	                          half-open breaker (default 3)
//	-log-format string        structured log encoding: text or json (default "text")
//	-version                  print the build version and exit
//
// Example:
//
//	rcaserve -addr :8081 -node-id n1 &
//	rcaserve -addr :8082 -node-id n2 &
//	rcagate -addr :8090 -nodes n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082 &
//	curl -s localhost:8090/v1/allocate -d '{
//	    "pattern": {"offsets": [1, 0, 2, -1, 1, 0, -2]},
//	    "agu": {"registers": 1, "modifyRange": 1}
//	}'
//
// The gateway shuts down gracefully on SIGINT/SIGTERM: the listener
// stops, in-flight forwards get a drain window, then the health
// checker and connection pools are released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dspaddr/internal/cluster"
)

// shutdownGrace is how long in-flight requests get to finish after a
// termination signal.
const shutdownGrace = 10 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rcagate:", err)
		os.Exit(1)
	}
}

// run parses flags, builds the fleet and serves until a termination
// signal arrives.
func run(args []string) error {
	fs := flag.NewFlagSet("rcagate", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	nodes := fs.String("nodes", "", "fleet members as name=url pairs, comma separated (names must match the nodes' -node-id)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per member on the hash ring (0 = 128 default)")
	probeInterval := fs.Duration("probe-interval", 0, "health-check cadence (0 = 500ms default)")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe timeout (0 = 1s default)")
	failThreshold := fs.Int("fail-threshold", 0, "consecutive failures before a node is marked down (0 = 2 default)")
	forwardTimeout := fs.Duration("forward-timeout", 0, "per-hop forwarding timeout (0 = 30s default)")
	breakerDisable := fs.Bool("breaker-disable", false, "turn per-node circuit breakers off")
	breakerWindow := fs.Int("breaker-window", 0, "breaker rolling outcome window per node (0 = 32 default)")
	breakerMinSamples := fs.Int("breaker-min-samples", 0, "minimum outcomes in the window before a breaker may trip (0 = 8 default)")
	breakerErrRate := fs.Float64("breaker-error-rate", 0, "window failure fraction that trips a breaker (0 = 0.5 default)")
	breakerLatencyQuantile := fs.Float64("breaker-latency-quantile", 0, "window latency quantile the slow trip evaluates (0 = 0.9 default)")
	breakerLatencyThreshold := fs.Duration("breaker-latency-threshold", 0, "latency at the quantile that trips a breaker (0 = 250ms default, negative disables the slow trip)")
	breakerOpenFor := fs.Duration("breaker-open-for", 0, "how long an open breaker refuses before half-opening (0 = 2s default)")
	breakerHalfOpenEvery := fs.Duration("breaker-half-open-every", 0, "half-open trickle: at most one admission per interval (0 = 250ms default)")
	breakerCloseAfter := fs.Int("breaker-close-after", 0, "consecutive fast successes that close a half-open breaker (0 = 3 default)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("rcagate", buildVersion())
		return nil
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}

	members, err := cluster.ParseMembers(*nodes)
	if err != nil {
		return fmt.Errorf("%w (set -nodes)", err)
	}
	fleet, err := cluster.NewFleet(members, cluster.FleetOptions{
		VirtualNodes:  *vnodes,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailThreshold: *failThreshold,
		Breaker: cluster.BreakerOptions{
			Disabled:         *breakerDisable,
			Window:           *breakerWindow,
			MinSamples:       *breakerMinSamples,
			ErrRate:          *breakerErrRate,
			LatencyQuantile:  *breakerLatencyQuantile,
			LatencyThreshold: *breakerLatencyThreshold,
			OpenFor:          *breakerOpenFor,
			HalfOpenEvery:    *breakerHalfOpenEvery,
			CloseAfter:       *breakerCloseAfter,
		},
	})
	if err != nil {
		return err
	}
	gw, err := cluster.New(cluster.Options{
		Fleet:          fleet,
		Version:        buildVersion(),
		ForwardTimeout: *forwardTimeout,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer gw.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		names := make([]string, len(members))
		for i := range members {
			names[i] = members[i].Name
		}
		logger.Info("gateway listening",
			"version", buildVersion(), "addr", *addr,
			"nodes", names, "ringPoints", fleet.Ring().Size())
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
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// newLogger builds the process logger from the -log-format flag.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}
