package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/pdm"
	"repro/internal/service"
)

const (
	clusterWorkers = 3
	clusterStripes = 4
)

// clusterChain drives a coordinator and three in-process workers: every job
// uploads a striped dataset, runs a Gray-code job (A_hl = 0: per-node
// sub-jobs plus a stripe relabel) and a bit-reversal job (A_hl ≠ 0: the
// coordinator gathers and routes every record), then downloads the result.
var clusterChain = &workload{
	name:    "cluster-chain",
	cfg:     bmmc.Config{N: 1 << 19, D: 8, B: 64, M: 1 << 14},
	clients: 1,
	warmups: 2,
	jobs:    100,
	prepare: func(ctx context.Context, e *env, cfg bmmc.Config) (opener, error) {
		gray, rev := bmmc.GrayCode(cfg.LgN()), bmmc.BitReversal(cfg.LgN())
		for _, p := range []bmmc.Permutation{gray, rev} {
			start := time.Now()
			_, err := bmmc.NewEngine().Plan(cfg, p)
			e.tr.record(span{Name: "core.plan", Job: "chain", Start: start, End: time.Now()})
			if err != nil {
				return nil, err
			}
		}
		ch := &chain{cfg: cfg, gray: gray, rev: rev, input: inputBytes(e.seed, cfg.N),
			src: newAffine(rev.Compose(gray).Inverse())}
		return func(ctx context.Context, n int) (instance, error) {
			return openCluster(ctx, e, ch, n)
		}, nil
	},
}

// chain is the prepared input of cluster-chain. The Gray-code job is one
// MRC pass on every stripe, 2N/BD parallel I/Os in all; the bit-reversal
// job moves records through the coordinator and counts none.
type chain struct {
	cfg       bmmc.Config
	gray, rev bmmc.Permutation
	input     []byte
	src       affine
}

type clusterWorker struct {
	mgr    *service.Manager
	srv    *httptest.Server
	member *cluster.Member
	seen   int // jobs already ingested
}

type clusterInst struct {
	e       *env
	ch      *chain
	dir     string
	coord   *cluster.Coordinator
	srv     *httptest.Server
	workers []*clusterWorker
	tp      *http.Transport
	c       *client.Client
	dataset string
}

func openCluster(ctx context.Context, e *env, ch *chain, n int) (*clusterInst, error) {
	cl := &clusterInst{e: e, ch: ch, dir: filepath.Join(e.dir, fmt.Sprintf("cluster-%d", n))}
	cl.coord = cluster.New(cluster.Options{Seed: e.seed})
	cl.srv = httptest.NewServer(e.tr.middleware("cluster", cluster.NewHandler(cl.coord), nil))
	for i := 0; i < clusterWorkers; i++ {
		// Distinct seeds: workers mint job ids independently and the
		// coordinator routes by id.
		mc := service.ManagerConfig{Workers: 2, Seed: e.seed + int64(i+1)*1000,
			Dir: filepath.Join(cl.dir, fmt.Sprintf("w%d", i+1))}
		if e.tr != nil {
			mc.WrapBackend = func(_ string, be bmmc.Backend) bmmc.Backend {
				return pdm.InstrumentBackend(be, e.tr.observeIO(ch.cfg.B))
			}
		}
		mgr, err := service.NewManager(mc)
		if err != nil {
			cl.close(ctx)
			return nil, err
		}
		w := &clusterWorker{mgr: mgr, srv: httptest.NewServer(e.tr.middleware("worker", service.NewHandler(mgr, nil), nil))}
		w.member = cluster.StartMember(cl.srv.URL, fmt.Sprintf("w%d", i+1), w.srv.URL, nil)
		cl.workers = append(cl.workers, w)
	}
	if err := cl.awaitWorkers(ctx); err != nil {
		cl.close(ctx)
		return nil, err
	}
	cl.tp, cl.c = newClient(e, cl.srv.URL)
	ds, err := cl.c.CreateDataset(ctx, client.CreateDatasetRequest{Config: ch.cfg, Stripes: clusterStripes})
	if err != nil {
		cl.close(ctx)
		return nil, err
	}
	cl.dataset = ds.ID
	return cl, nil
}

// awaitWorkers waits until every worker has joined and is healthy.
func (cl *clusterInst) awaitWorkers(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := 0
		for _, w := range cl.coord.Workers() {
			if w.Health == cluster.Healthy {
				healthy++
			}
		}
		if healthy == clusterWorkers {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%d of %d workers joined", healthy, clusterWorkers)
		}
		time.Sleep(time.Millisecond)
	}
}

func (cl *clusterInst) run(ctx context.Context, j *job) (outcome, error) {
	tr := cl.e.tr
	cfg := cl.ch.cfg
	if err := tr.call(ctx, j, "client.upload", func(ctx context.Context) error {
		return cl.c.UploadDataset(ctx, cl.dataset, bytes.NewReader(cl.ch.input))
	}); err != nil {
		return outcome{}, fmt.Errorf("upload: %w", err)
	}
	ios := 0
	var finals []*client.JobStatus
	for _, p := range []bmmc.Permutation{cl.ch.gray, cl.ch.rev} {
		var st, final *client.JobStatus
		if err := tr.call(ctx, j, "client.submit", func(ctx context.Context) (err error) {
			st, err = cl.c.Submit(ctx, client.NewDatasetSubmitRequest(cl.dataset, p))
			return err
		}); err != nil {
			return outcome{}, fmt.Errorf("submit: %w", err)
		}
		if err := tr.call(ctx, j, "client.watch", func(ctx context.Context) (err error) {
			final, err = cl.c.Watch(ctx, st.ID, nil)
			return err
		}); err != nil {
			return outcome{}, fmt.Errorf("watch %s: %w", st.ID, err)
		}
		if final.State != client.StateDone || final.Report == nil {
			return outcome{}, fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
		}
		ios += final.Report.ParallelIOs
		finals = append(finals, final)
	}
	if ios != cfg.PassIOs() {
		return outcome{}, fmt.Errorf("chain reports %d parallel I/Os, want one pass of %d", ios, cfg.PassIOs())
	}
	chk := newChecker(cl.e.seed, cl.ch.src)
	if err := tr.call(ctx, j, "client.download", func(ctx context.Context) error {
		return cl.c.DownloadDataset(ctx, cl.dataset, chk)
	}); err != nil {
		return outcome{}, fmt.Errorf("download: %w", err)
	}
	if err := chk.result(cfg.N); err != nil {
		return outcome{}, err
	}
	out := outcome{records: 2 * cfg.N, ios: ios}
	if tr != nil {
		out.after = func() error { cl.ingest(j, finals); return nil }
	}
	return out, nil
}

// ingest records the chain's two coordinator jobs and every worker sub-job
// it spawned, with the sub-jobs' engine passes from their own traces.
func (cl *clusterInst) ingest(j *job, finals []*client.JobStatus) {
	tr := cl.e.tr
	for i, name := range []string{"cluster.decomposed", "cluster.general"} {
		tr.record(span{Parent: j.span, Name: name, Job: j.label, Start: *finals[i].Started, End: *finals[i].Finished})
	}
	for _, w := range cl.workers {
		jobs := w.mgr.Jobs()
		for _, sj := range jobs[w.seen:] {
			st := sj.Status()
			if st.Finished == nil {
				continue
			}
			id := tr.record(span{Parent: j.span, Name: "cluster.subjob", Job: j.label, Start: st.Submitted, End: *st.Finished})
			if st.Report != nil {
				tr.executeSpan(id, j.label, sj.Trace().Spans, st.Report.ParallelIOs)
			}
		}
		w.seen = len(jobs)
	}
}

func (cl *clusterInst) planCacheRatio(ctx context.Context) (float64, error) {
	m, err := cl.c.Metrics(ctx)
	if err != nil {
		return 0, err
	}
	return m.PlanCacheRate, nil
}

// close deletes the dataset first, so the workers' graceful leave has
// nothing to hand off, then stops the coordinator and the workers.
func (cl *clusterInst) close(ctx context.Context) error {
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var errs []error
	if cl.dataset != "" {
		_, err := cl.c.DeleteDataset(sctx, cl.dataset)
		errs = append(errs, err)
	}
	for _, w := range cl.workers {
		errs = append(errs, w.member.Leave(sctx))
	}
	cl.srv.Close()
	cl.coord.Shutdown()
	for _, w := range cl.workers {
		w.srv.Close()
		w.mgr.Shutdown(sctx)
	}
	if cl.tp != nil {
		cl.tp.CloseIdleConnections()
	}
	errs = append(errs, sctx.Err(), os.RemoveAll(cl.dir))
	return errors.Join(errs...)
}
