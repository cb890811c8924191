package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/pdm"
	"repro/internal/service"
)

// catalogSize is how many distinct permutations daemon-jobs cycles
// through, so the daemon's plan cache both misses and hits.
const catalogSize = 16

// entry is one permutation of the daemon catalog with its exact cost and
// the map from an output address back to its input address.
type entry struct {
	perm bmmc.Permutation
	cost int
	src  affine
}

// daemonJobs drives an in-process bmmcd over loopback HTTP through the Go
// client: submit, upload, watch, download, release. The data plane,
// queueing and per-job provisioning run here, and execution is a minority
// of each job. Storage is on file: a released job's records stay live in
// the daemon, and with RAM storage they would grow the heap by 2N records
// per job.
var daemonJobs = &workload{
	name:    "daemon-jobs",
	cfg:     bmmc.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14},
	clients: 2,
	warmups: 2,
	jobs:    240,
	prepare: func(ctx context.Context, e *env, cfg bmmc.Config) (opener, error) {
		cat, err := catalog(e, cfg)
		if err != nil {
			return nil, err
		}
		input := inputBytes(e.seed, cfg.N)
		return func(ctx context.Context, n int) (instance, error) {
			return openDaemon(e, cfg, cat, input, n)
		}, nil
	},
}

// catalog draws seeded rank-6 BMMCs until catalogSize of them share the
// first one's pass count, so every job costs the same parallel I/Os. Each
// is planned uncached once, as the planning layer's timing sample.
func catalog(e *env, cfg bmmc.Config) ([]entry, error) {
	rng := rand.New(rand.NewSource(e.seed))
	var cat []entry
	passes := -1
	for draws := 0; len(cat) < catalogSize; draws++ {
		if draws == 64*catalogSize {
			return nil, fmt.Errorf("only %d of %d rank-6 permutations share %d passes", len(cat), draws, passes)
		}
		p := randomRank6(rng, cfg)
		start := time.Now()
		pl, err := bmmc.NewEngine().Plan(cfg, p)
		e.tr.record(span{Name: "core.plan", Job: "catalog", Start: start, End: time.Now()})
		if err != nil {
			return nil, err
		}
		if passes < 0 {
			passes = pl.PassCount()
		}
		if pl.PassCount() == passes {
			cat = append(cat, entry{perm: p, cost: pl.CostIOs(), src: newAffine(p.Inverse())})
		}
	}
	return cat, nil
}

// daemonInst is one bmmcd: its manager, its HTTP server and a client.
type daemonInst struct {
	e     *env
	cfg   bmmc.Config
	cat   []entry
	input []byte
	dir   string
	mgr   *service.Manager
	srv   *httptest.Server
	tp    *http.Transport
	c     *client.Client

	uploaded sync.Map // job label -> server-side end of its upload
}

func openDaemon(e *env, cfg bmmc.Config, cat []entry, input []byte, n int) (*daemonInst, error) {
	d := &daemonInst{e: e, cfg: cfg, cat: cat, input: input,
		dir: filepath.Join(e.dir, fmt.Sprintf("daemon-%d", n))}
	mc := service.ManagerConfig{Workers: 2, Dir: d.dir, Seed: e.seed}
	if e.tr != nil {
		mc.WrapBackend = func(_ string, be bmmc.Backend) bmmc.Backend {
			return pdm.InstrumentBackend(be, e.tr.observeIO(cfg.B))
		}
	}
	mgr, err := service.NewManager(mc)
	if err != nil {
		return nil, err
	}
	d.mgr = mgr
	d.srv = httptest.NewServer(e.tr.middleware("service", service.NewHandler(mgr, nil), d.noteUpload))
	d.tp, d.c = newClient(e, d.srv.URL)
	return d, nil
}

// newClient returns a bmmcd client with a private connection pool; traced
// runs stamp each request with its caller's span.
func newClient(e *env, url string) (*http.Transport, *client.Client) {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = tp
	if e.tr != nil {
		rt = spanTransport{tp}
	}
	return tp, client.New(url, client.WithHTTPClient(&http.Client{Transport: rt}))
}

func (d *daemonInst) noteUpload(s span) {
	if s.Name == "service.upload" {
		d.uploaded.Store(s.Job, s.End)
	}
}

func (d *daemonInst) run(ctx context.Context, j *job) (out outcome, err error) {
	tr := d.e.tr
	ent := d.cat[j.index%len(d.cat)]
	req := client.NewSubmitRequest(d.cfg, ent.perm)
	req.AwaitInput = true
	req.Backend = client.BackendFile
	var st *client.JobStatus
	if err := tr.call(ctx, j, "client.submit", func(ctx context.Context) (err error) {
		st, err = d.c.Submit(ctx, req)
		return err
	}); err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	defer func() {
		if err != nil {
			// Release the failed job's storage; its own error is the one to report.
			_, _ = d.c.Cancel(ctx, st.ID)
		}
	}()
	if st.Plan == nil || st.Plan.CostIOs != ent.cost {
		return out, fmt.Errorf("job %s: daemon quotes plan %+v, bench plans %d parallel I/Os", st.ID, st.Plan, ent.cost)
	}
	if err := tr.call(ctx, j, "client.upload", func(ctx context.Context) error {
		return d.c.Upload(ctx, st.ID, bytes.NewReader(d.input))
	}); err != nil {
		return out, fmt.Errorf("upload %s: %w", st.ID, err)
	}
	var final *client.JobStatus
	var notified time.Time
	if err := tr.call(ctx, j, "client.watch", func(ctx context.Context) (err error) {
		final, err = d.c.Watch(ctx, st.ID, func(ev client.Event) {
			if ev.Type == service.EventState && ev.State.Terminal() {
				notified = time.Now()
			}
		})
		return err
	}); err != nil {
		return out, fmt.Errorf("watch %s: %w", st.ID, err)
	}
	if final.State != client.StateDone || final.Report == nil {
		return out, fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	if final.Report.ParallelIOs != ent.cost {
		return out, fmt.Errorf("job %s reports %d parallel I/Os, plan costs %d", st.ID, final.Report.ParallelIOs, ent.cost)
	}
	src := ent.src
	if d.e.corrupt && j.timed {
		src.c ^= 1
	}
	chk := newChecker(d.e.seed, src)
	if err := tr.call(ctx, j, "client.download", func(ctx context.Context) error {
		return d.c.Download(ctx, st.ID, chk)
	}); err != nil {
		return out, fmt.Errorf("download %s: %w", st.ID, err)
	}
	if err := chk.result(d.cfg.N); err != nil {
		return out, fmt.Errorf("job %s: %w", st.ID, err)
	}
	if err := tr.call(ctx, j, "client.release", func(ctx context.Context) error {
		_, err := d.c.Cancel(ctx, st.ID)
		return err
	}); err != nil {
		return out, fmt.Errorf("release %s: %w", st.ID, err)
	}
	out = outcome{records: d.cfg.N, ios: final.Report.ParallelIOs}
	if tr != nil {
		out.after = func() error { return d.ingest(j, final, notified) }
	}
	return out, nil
}

// ingest records what the daemon knows about a finished job: its engine
// passes and loads from the job's own trace, and its queue wait, run and
// notification intervals from its status timestamps.
func (d *daemonInst) ingest(j *job, final *client.JobStatus, notified time.Time) error {
	dj, ok := d.mgr.Job(final.ID)
	if !ok {
		return fmt.Errorf("job %s missing from the manager", final.ID)
	}
	tr := d.e.tr
	tr.executeSpan(j.span, j.label, dj.Trace().Spans, final.Report.ParallelIOs)
	v, _ := d.uploaded.LoadAndDelete(j.label)
	if up, ok := v.(time.Time); ok {
		tr.record(span{Parent: j.span, Name: "service.queue_wait", Job: j.label, Start: up, End: *final.Started})
	}
	tr.record(span{Parent: j.span, Name: "service.run", Job: j.label, Start: *final.Started, End: *final.Finished})
	tr.record(span{Parent: j.span, Name: "service.notify", Job: j.label, Start: *final.Finished, End: notified})
	return nil
}

func (d *daemonInst) planCacheRatio(ctx context.Context) (float64, error) {
	m, err := d.c.Metrics(ctx)
	if err != nil {
		return 0, err
	}
	return m.PlanCacheRate, nil
}

func (d *daemonInst) close(ctx context.Context) error {
	d.srv.Close()
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	d.mgr.Shutdown(sctx)
	d.tp.CloseIdleConnections()
	return errors.Join(sctx.Err(), os.RemoveAll(d.dir))
}
