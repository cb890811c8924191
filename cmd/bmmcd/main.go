// Command bmmcd serves BMMC permutations as a long-lived daemon: an
// HTTP/JSON control plane for submitting, watching, and canceling
// permutation jobs, and a streaming data plane moving records in the
// library's 16-byte wire format. Jobs are admitted through a bounded FIFO
// queue (backpressure beyond -max-jobs), executed by a bounded worker
// pool driving one shared execution Engine (one plan cache for every
// tenant), and isolated on per-job storage backends (RAM, files, or
// sharded directories under -dir) — or chained on first-class datasets:
// POST /v1/datasets provisions storage once, PUT .../input uploads records
// once, and any number of jobs submitted with a dataset handle then run on
// that storage back-to-back, in submission order, with no re-upload, until
// GET .../output downloads the composed result and DELETE reclaims the
// storage. DELETE of a standalone job that finished done with file or
// sharded storage may keep its directory under -dir as a spare, which the
// next job of the same backend and geometry takes over; at most -workers
// spares are kept, and shutdown removes them.
//
// Usage:
//
//	bmmcd [-addr host:port] [-dir path] [-shards s] [-max-jobs q]
//	      [-workers w] [-seed s] [-drain timeout] [-log-json] [-log-level l]
//	      [-pprof-addr host:port] [-coord url] [-advertise url] [-worker-id id]
//
// GET /metrics serves the daemon's Prometheus exposition (per-op backend
// latency, per-pass I/O counts next to the paper's bounds, queue and plan
// cache state) and GET /v1/jobs/{id}/trace a job's span trace; -pprof-addr
// additionally serves net/http/pprof on its own listener.
//
// With -coord, the daemon additionally joins the cluster coordinator at
// that URL as a worker: it registers under -worker-id (default: derived
// from the bound address), heartbeats on the coordinator's cadence, and on
// shutdown leaves gracefully — its datasets are handed off to other
// workers before the listener closes. -advertise overrides the base URL
// the coordinator uses to reach this daemon (default: the bound address).
//
// The daemon logs one structured line per lifecycle event and announces
// its bound address on startup ("bmmcd listening addr=..."), so -addr may
// use port 0 for an OS-assigned port. SIGINT or SIGTERM starts a graceful
// drain: the listener closes, running jobs get -drain to finish, queued
// jobs are canceled, and all job storage is released before exit.
//
// See package repro/client for the Go client and the README's "Service
// mode" section for a curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9432", "listen address (port 0 for OS-assigned)")
		dir      = flag.String("dir", "", "base directory for job storage (empty: private temp dir); DELETE of a done job may keep its directory as a spare for the next job, and shutdown removes it")
		shards   = flag.Int("shards", service.DefaultShards, "shard directories per sharded-backend job")
		maxJobs  = flag.Int("max-jobs", service.DefaultQueueDepth, "admission queue depth (backpressure beyond it)")
		workers  = flag.Int("workers", service.DefaultWorkers, "worker pool size (jobs executing concurrently)")
		seed     = flag.Int64("seed", 1, "seed for job-id generation")
		inWait   = flag.Duration("input-wait", service.DefaultInputWait, "how long an await_input job may wait for its upload before being canceled")
		drain    = flag.Duration("drain", 30*time.Second, "graceful drain timeout on SIGINT/SIGTERM")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON instead of key=value text")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		pprofAdr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty: disabled)")

		coord     = flag.String("coord", "", "cluster coordinator URL to join as a worker (empty: standalone)")
		advertise = flag.String("advertise", "", "base URL the coordinator reaches this daemon at (default: bound address)")
		workerID  = flag.String("worker-id", "", "stable worker id in the cluster (default: derived from bound address)")
	)
	flag.Parse()

	logger, err := cliutil.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmmcd:", err)
		os.Exit(2)
	}
	if _, err := cliutil.ServePprof(*pprofAdr, logger); err != nil {
		logger.Error("starting pprof", "err", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listening", "addr", *addr, "err", err)
		os.Exit(1)
	}

	if *coord != "" {
		if *advertise == "" {
			*advertise = "http://" + ln.Addr().String()
		}
		if *workerID == "" {
			*workerID = "worker-" + ln.Addr().String()
		}
		// Workers with identical seeds would mint identical job ids, and
		// the coordinator routes jobs by id; unless the operator pinned a
		// seed, derive one from the worker's identity.
		seedSet := false
		flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if !seedSet {
			h := fnv.New64a()
			fmt.Fprint(h, *workerID)
			*seed = int64(h.Sum64())
		}
	}

	mgr, err := service.NewManager(service.ManagerConfig{
		Workers:    *workers,
		QueueDepth: *maxJobs,
		Dir:        *dir,
		Shards:     *shards,
		Seed:       *seed,
		InputWait:  *inWait,
		Logger:     logger,
	})
	if err != nil {
		logger.Error("starting job manager", "err", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: service.NewHandler(mgr, logger)}
	logger.Info("bmmcd listening", "addr", ln.Addr().String(),
		"workers", *workers, "max_jobs", *maxJobs, "shards", *shards)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var member *cluster.Member
	if *coord != "" {
		member = cluster.StartMember(*coord, *workerID, *advertise, logger)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String(), "timeout", drain.String())
	case err := <-errc:
		logger.Error("server failed", "err", err)
		mgr.Shutdown(context.Background())
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if member != nil {
		// Leave BEFORE closing the listener: the coordinator drains our
		// datasets by pulling handoff streams through it.
		if err := member.Leave(ctx); err != nil {
			logger.Warn("cluster leave", "err", err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	mgr.Shutdown(ctx)
	logger.Info("bmmcd stopped")
}
