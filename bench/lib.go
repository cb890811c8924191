package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	bmmc "repro"
	"repro/backendtest/chaos"
	"repro/internal/pdm"
)

// libSpec describes a library workload: one seeded rank-6 BMMC, planned once
// per setup, executed by one client on one Dataset over and over. Each run
// leaves the records permuted once more, so after k jobs the dataset holds
// the input permuted k times.
type libSpec struct {
	concurrentIO bool
	sync         bool // Dataset.Sync after every Execute
	// storage returns the backend to keep under dir, and the latency model
	// to switch off while the benchmark stages input and reads output back
	// (nil when there is none).
	storage func(e *env, dir string) (bmmc.Backend, *chaos.LatencyBackend)
}

func libWorkload(name string, cfg bmmc.Config, spec libSpec) *workload {
	return &workload{name: name, cfg: cfg, clients: 1, warmups: 2, jobs: 100,
		prepare: func(ctx context.Context, e *env, cfg bmmc.Config) (opener, error) {
			p := randomRank6(rand.New(rand.NewSource(e.seed)), cfg)
			return func(ctx context.Context, n int) (instance, error) {
				return openLib(ctx, e, name, cfg, spec, p, n)
			}, nil
		}}
}

// libInst is one library system: a Dataset, an Engine, and the plan.
type libInst struct {
	e    *env
	cfg  bmmc.Config
	sync bool
	dir  string
	lat  *chaos.LatencyBackend
	ds   *bmmc.Dataset
	eng  *bmmc.Engine
	plan *bmmc.Plan
	pinv bmmc.Permutation

	// src maps an output address back to its input address after the
	// Executes verified since the input was loaded.
	src bmmc.Permutation

	collecting atomic.Bool // storage calls are traced only inside Execute
	mu         sync.Mutex
	calls      []ioCall
}

func openLib(ctx context.Context, e *env, name string, cfg bmmc.Config, spec libSpec, p bmmc.Permutation, n int) (*libInst, error) {
	l := &libInst{e: e, cfg: cfg, sync: spec.sync, pinv: p.Inverse(), src: bmmc.Identity(cfg.LgN()),
		dir: filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, n))}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, err
	}
	be, lat := spec.storage(e, l.dir)
	l.lat = lat
	if e.tr != nil {
		be = pdm.InstrumentBackend(be, l.observe)
	}
	ds, err := bmmc.OpenDataset(cfg, bmmc.WithBackend(be), bmmc.WithConcurrentIO(spec.concurrentIO))
	if err != nil {
		os.RemoveAll(l.dir)
		return nil, err
	}
	l.ds = ds
	if err := l.load(ctx); err != nil {
		l.close(ctx)
		return nil, err
	}
	l.eng = bmmc.NewEngine()
	start := time.Now()
	l.plan, err = l.eng.Plan(cfg, p)
	e.tr.record(span{Name: "core.plan", Job: name, Start: start, End: time.Now()})
	if err != nil {
		l.close(ctx)
		return nil, err
	}
	return l, nil
}

// observe is the traced run's storage hook; it runs on the pass runner's
// prefetch and main goroutines.
func (l *libInst) observe(s pdm.OpSample) {
	if !l.collecting.Load() {
		return
	}
	l.e.tr.observeIO(l.cfg.B)(s)
	l.mu.Lock()
	l.calls = append(l.calls, ioCall{write: isWrite(s.Op), blocks: s.Blocks, start: s.Start, end: s.End()})
	l.mu.Unlock()
}

func (l *libInst) run(ctx context.Context, j *job) (outcome, error) {
	tr := l.e.tr
	var opts []bmmc.Option
	var marks []mark
	if tr != nil {
		opts = append(opts, bmmc.WithProgress(func(ev bmmc.PassEvent) {
			marks = append(marks, mark{ev, time.Now()})
		}))
		l.calls = l.calls[:0]
		l.collecting.Store(true)
	}
	before := l.ds.Stats().ParallelIOs()
	start := time.Now()
	rep, err := l.eng.Execute(ctx, l.plan, l.ds, opts...)
	end := time.Now()
	l.collecting.Store(false)
	if err != nil {
		return outcome{}, l.reload(ctx, fmt.Errorf("execute: %w", err))
	}
	ios := l.ds.Stats().ParallelIOs() - before
	if tr != nil {
		id := tr.newID()
		tr.engineSpans(id, j.label, marks, l.calls, true)
		tr.record(span{ID: id, Parent: j.span, Name: "engine.execute", Job: j.label, Start: start, End: end,
			Attrs: map[string]float64{"ios": float64(ios)}})
	}
	if rep.ParallelIOs != l.plan.CostIOs() || ios != rep.ParallelIOs {
		return outcome{}, l.reload(ctx, fmt.Errorf("report counts %d parallel I/Os and stats %d, plan costs %d",
			rep.ParallelIOs, ios, l.plan.CostIOs()))
	}
	if l.sync {
		start := time.Now()
		err := l.ds.Sync()
		tr.record(span{Parent: j.span, Name: "pdm.sync", Job: j.label, Start: start, End: time.Now()})
		if err != nil {
			return outcome{}, l.reload(ctx, fmt.Errorf("sync: %w", err))
		}
	}
	return outcome{records: l.cfg.N, ios: ios, after: func() error { return l.verify(ctx) }}, nil
}

// verify runs after every successful Execute: it streams the dataset
// through a checker expecting the input permuted once more than before.
func (l *libInst) verify(ctx context.Context) error {
	l.src = l.src.Compose(l.pinv)
	chk := newChecker(l.e.seed, newAffine(l.src))
	if err := l.unmodeled(func() error { return l.ds.Dump(ctx, chk) }); err != nil {
		return l.reload(ctx, err)
	}
	if err := chk.result(l.cfg.N); err != nil {
		return l.reload(ctx, err)
	}
	return nil
}

// load stages the seeded input on the dataset.
func (l *libInst) load(ctx context.Context) error {
	return l.unmodeled(func() error { return l.ds.Load(ctx, newInputReader(l.e.seed, l.cfg.N)) })
}

// unmodeled runs the benchmark's own data movement with the latency model
// off: staging and checking records is not the workload being measured.
func (l *libInst) unmodeled(fn func() error) error {
	if l.lat != nil {
		l.lat.Disarm()
		defer l.lat.Arm()
	}
	return fn()
}

// reload restores the input after a failed job, whose records are no
// longer a known permutation of it, and returns the job's error.
func (l *libInst) reload(ctx context.Context, cause error) error {
	l.src = bmmc.Identity(l.cfg.LgN())
	if err := l.load(ctx); err != nil {
		return fmt.Errorf("%w; reloading the input: %w", cause, err)
	}
	return cause
}

func (l *libInst) planCacheRatio(context.Context) (float64, error) {
	cs := l.eng.CacheStats()
	if cs.Hits+cs.Misses == 0 {
		return 0, nil
	}
	return float64(cs.Hits) / float64(cs.Hits+cs.Misses), nil
}

func (l *libInst) close(context.Context) error {
	var err error
	if l.ds != nil {
		err = l.ds.Close()
	}
	if rerr := os.RemoveAll(l.dir); err == nil {
		err = rerr
	}
	return err
}

var (
	// libFile is the ROADMAP's hot path, E15's geometry on mmap'd files:
	// the scatter kernels, grouped range I/O and page writes do the work
	// and planning does none. It is the only workload that fsyncs, once
	// per job.
	libFile = libWorkload("lib-file", bmmc.Config{N: 1 << 22, D: 8, B: 64, M: 1 << 16}, libSpec{
		sync: true,
		storage: func(e *env, dir string) (bmmc.Backend, *chaos.LatencyBackend) {
			return bmmc.FileBackend(dir), nil
		},
	})
	// libSlowdisk is the paper's regime, where device latency sets the
	// time: seeded lognormal per-block service times with disk 0 three
	// times slower, dispatched concurrently per disk. Prefetch and
	// concurrent dispatch earn their keep here; scatter CPU barely shows.
	libSlowdisk = libWorkload("lib-slowdisk", bmmc.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}, libSpec{
		concurrentIO: true,
		storage: func(e *env, dir string) (bmmc.Backend, *chaos.LatencyBackend) {
			be := bmmc.MemBackend()
			if e.wrap != nil {
				be = e.wrap(be)
			}
			lat := chaos.Latency(be, chaos.LatencyOptions{
				Seed:        e.seed,
				Dist:        chaos.Lognormal(10*time.Microsecond, 0.5),
				DiskFactors: []float64{3, 1, 1, 1, 1, 1, 1, 1},
			})
			return lat, lat
		},
	})
)
