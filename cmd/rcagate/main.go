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
// Nodes must run with -node-id matching their name in -nodes. Each
// node URL is plain http://host:port, with no path, query or userinfo:
// the gateway keeps a pool of HTTP/1.1 connections to each node.
//
// Usage:
//
//	rcagate -nodes n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082 [flags]
//
// Flags:
//
//	-addr string              listen address (default ":8090")
//	-nodes string             fleet members as name=url pairs, comma separated (required)
//	-probe-interval duration  health-check cadence (default 500ms)
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
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dspaddr/internal/api"
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
	probeInterval := fs.Duration("probe-interval", 0, "health-check cadence (0 = 500ms default)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("rcagate", api.BuildVersion())
		return nil
	}

	logger, err := api.NewLogger(*logFormat)
	if err != nil {
		return err
	}

	members, err := cluster.ParseMembers(*nodes)
	if err != nil {
		return fmt.Errorf("%w (set -nodes)", err)
	}
	fleet, err := cluster.NewFleet(members, cluster.FleetOptions{ProbeInterval: *probeInterval})
	if err != nil {
		return err
	}
	gw, err := cluster.New(cluster.Options{
		Fleet:   fleet,
		Version: api.BuildVersion(),
		Logger:  logger,
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
			"version", api.BuildVersion(), "addr", *addr,
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
