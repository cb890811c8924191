// Command bmmc-coord runs the cluster coordinator: the control plane of a
// bmmcd fleet. Workers (bmmcd -coord) register with it over HTTP/JSON,
// heartbeat for liveness, and leave gracefully; the coordinator places
// datasets on workers by consistent hashing on dataset id, rebalances on
// membership change by replaying the 16-byte record wire format between
// workers, and serves the single-daemon /v1 surface through bmmcd's own
// front end (service.NewFrontEnd), so clients use a cluster exactly as
// they use one daemon. Striped jobs and datasets are served by the
// coordinator itself; every other job and dataset request is proxied to
// the worker that holds it, SSE streams included. POST
// /v1/datasets/{id}/handoff is a worker's operation and answers a JSON
// 404 here. The control plane adds POST /cluster/v1/join, /heartbeat and
// /leave, and GET /cluster/v1/workers.
//
// Datasets created with "stripes": k spread over k ring-chosen workers as
// contiguous record ranges; a BMMC permutation over such a dataset
// decomposes into per-node sub-passes plus a block-exchange phase run by
// the coordinator itself.
//
// Usage:
//
//	bmmc-coord [-addr host:port] [-heartbeat d] [-seed s] [-drain d]
//	           [-log-json] [-log-level l] [-pprof-addr host:port]
//
// GET /metrics serves the cluster-wide Prometheus exposition: the
// coordinator's own families merged with a live scrape of every worker's
// /metrics, worker series tagged with a worker label (failed scrapes are
// skipped and counted in bmmc_coord_scrape_failures_total).
//
// The coordinator announces its bound address on startup ("bmmc-coord
// listening addr=..."), so -addr may use port 0. It keeps no durable
// state: restart it and workers re-join on their next heartbeat, and their
// datasets are re-adopted from the workers' own listings.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9430", "listen address (port 0 for OS-assigned)")
		heartbeat = flag.Duration("heartbeat", cluster.DefaultHeartbeatInterval, "worker heartbeat cadence")
		seed      = flag.Int64("seed", 1, "seed for dataset- and job-id generation")
		drain     = flag.Duration("drain", 30*time.Second, "graceful drain timeout on SIGINT/SIGTERM")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of key=value text")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		pprofAdr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	)
	flag.Parse()

	logger, err := cliutil.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmmc-coord:", err)
		os.Exit(2)
	}
	if _, err := cliutil.ServePprof(*pprofAdr, logger); err != nil {
		logger.Error("starting pprof", "err", err)
		os.Exit(1)
	}

	coord := cluster.New(cluster.Options{
		HeartbeatInterval: *heartbeat,
		Seed:              *seed,
		Logger:            logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listening", "addr", *addr, "err", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: cluster.NewHandler(coord)}
	logger.Info("bmmc-coord listening", "addr", ln.Addr().String(), "heartbeat", heartbeat.String())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String(), "timeout", drain.String())
	case err := <-errc:
		logger.Error("server failed", "err", err)
		coord.Shutdown()
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	coord.Shutdown()
	logger.Info("bmmc-coord stopped")
}
