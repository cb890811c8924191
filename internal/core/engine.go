package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Engine is the stateless compute half of the Dataset/Engine split: it
// holds only execution options (pipelining, progress) and the LRU plan
// cache — never any records or storage. One Engine drives any number of
// Datasets from any number of goroutines; every Execute takes its target
// Dataset's exclusive run lock for the duration of the run, so concurrent
// executions on distinct Datasets proceed in parallel while two executions
// on one Dataset serialize.
//
// Every Engine method accepts per-call Option overrides layered over the
// construction-time settings — services use this to install a per-job
// WithProgress callback on a shared Engine, or to flip fusion per request
// — without any cross-call interference.
type Engine struct {
	s     settings
	cache *planCache
}

// NewEngine builds an execution engine from the planning and execution
// options (WithPipeline, WithFusion, WithPlanCache, WithProgress). Storage
// options (WithBackend, WithConcurrentIO) belong to CreateDataset and are
// ignored here.
func NewEngine(opts ...Option) *Engine {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	return &Engine{s: s, cache: newPlanCache(s.cacheSize)}
}

// overlay returns the engine's settings with per-call options applied.
func (e *Engine) overlay(opts []Option) settings {
	s := e.s
	for _, o := range opts {
		o(&s)
	}
	return s
}

// CacheStats returns the plan cache's hit/miss/eviction counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.snapshot() }

// Plan classifies and (for full BMMC permutations) factorizes bp for the
// given geometry, consulting the engine's plan cache, and returns the plan
// without executing it. Plans are immutable and portable: a Plan built
// here executes on any Dataset with the same Config, through this Engine
// or any other.
func (e *Engine) Plan(cfg pdm.Config, bp perm.BMMC, opts ...Option) (*Plan, error) {
	return plan(e.cache, cfg, bp, e.overlay(opts).fuse)
}

// checkTarget validates an execution target against a plan's geometry.
func checkTarget(pl *Plan, ds *Dataset) error {
	if pl == nil {
		return errors.New("core: Execute of a nil plan")
	}
	if ds == nil {
		return errors.New("core: Execute on a nil Dataset")
	}
	if pl.cfg != ds.Config() {
		return fmt.Errorf("core: plan built for geometry %v, Dataset has %v", pl.cfg, ds.Config())
	}
	return nil
}

// Execute runs a prepared plan against ds's stored records and reports the
// measured cost. No planning happens here: the pass list is taken from pl
// as-is, so N Execute calls of one Plan factorize exactly once (at Plan
// time) and yield records, Stats and Reports identical to N Permute calls
// (Permute is Plan followed by Execute). The dataset's run lock is held
// for the whole run: concurrent Executes on one Dataset serialize (each
// seeing the previous run's output), and reads wait for the run to finish.
//
// ctx is checked between memoryloads; cancellation aborts the run with
// ctx's error before the next memoryload is read — no counted parallel
// I/O is cut short, the pipeline's prefetch goroutine is drained, and the
// stored records are exactly the state after the last completed pass, so
// the Dataset remains usable. The plan's geometry must equal the
// Dataset's.
func (e *Engine) Execute(ctx context.Context, pl *Plan, ds *Dataset, opts ...Option) (*Report, error) {
	if err := checkTarget(pl, ds); err != nil {
		return nil, err
	}
	s := e.overlay(opts)
	ds.sys.AcquireRun()
	defer ds.sys.ReleaseRun()
	res, err := engine.RunPlan(ctx, ds.sys, pl.fplan, s.opt)
	if err != nil {
		return nil, err
	}
	return buildReport(pl, res), nil
}

// ExecuteAll runs a prepared plan sequence in order on one Dataset with
// one context and aggregates the per-plan reports, stopping at the first
// error. Each plan's run takes the dataset lock separately, so a long
// chain does not starve concurrent readers between steps. Because all
// planning happened at Plan time, the report's CacheHits/Planned counters
// stay zero (they describe planning done by the call itself).
func (e *Engine) ExecuteAll(ctx context.Context, plans []*Plan, ds *Dataset, opts ...Option) (*BatchReport, error) {
	batch := &BatchReport{}
	for i, pl := range plans {
		rep, err := e.Execute(ctx, pl, ds, opts...)
		if err != nil {
			return nil, fmt.Errorf("core: executing plan %d/%d: %w", i+1, len(plans), err)
		}
		batch.Jobs = append(batch.Jobs, rep)
		batch.Passes += rep.Passes
		batch.ParallelIOs += rep.ParallelIOs
	}
	return batch, nil
}

// Permute plans bp through the engine's cache and executes it on ds: Plan
// followed by Execute. The returned Report carries the measured cost next
// to the paper's bounds. ctx follows the Execute cancellation contract.
func (e *Engine) Permute(ctx context.Context, ds *Dataset, bp perm.BMMC, opts ...Option) (*Report, error) {
	pl, err := e.Plan(ds.Config(), bp, opts...)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, pl, ds, opts...)
}

// PermuteAll applies each permutation in order on ds — the stored records
// end up permuted by the composition, with every intermediate state
// materialized on disk (compose first with q.Compose(p) to pay for the
// composite instead). All jobs are planned up front through the plan
// cache, so a batch with repeated permutations factorizes each distinct
// one once; the plans then run through ExecuteAll. ctx follows the Execute
// cancellation contract; on error the records hold the state after the
// last completed pass.
func (e *Engine) PermuteAll(ctx context.Context, ds *Dataset, perms []perm.BMMC, opts ...Option) (*BatchReport, error) {
	plans := make([]*Plan, len(perms))
	for i, bp := range perms {
		pl, err := e.Plan(ds.Config(), bp, opts...)
		if err != nil {
			return nil, fmt.Errorf("core: planning job %d/%d: %w", i+1, len(perms), err)
		}
		plans[i] = pl
	}
	batch, err := e.ExecuteAll(ctx, plans, ds, opts...)
	if err != nil {
		return nil, err
	}
	for _, pl := range plans {
		switch {
		case pl.class != perm.ClassBMMC:
		case pl.cached:
			batch.CacheHits++
		default:
			batch.Planned++
		}
	}
	return batch, nil
}

// PermuteFactored forces the full Section 5 factoring algorithm even for
// permutations that have a cheaper class, for measurement purposes. It
// bypasses the plan cache and fusion so the measured cost is exactly the
// unoptimized Theorem 21 algorithm; only the identity stays free. ctx
// follows the Execute cancellation contract.
func (e *Engine) PermuteFactored(ctx context.Context, ds *Dataset, bp perm.BMMC, opts ...Option) (*Report, error) {
	cfg := ds.Config()
	if err := checkWidth(cfg, bp); err != nil {
		return nil, err
	}
	pl := &Plan{perm: bp, cfg: cfg, class: bp.Classify(cfg.LgB(), cfg.LgM())}
	if !bp.IsIdentity() {
		fplan, err := factor.Factorize(bp, cfg.LgB(), cfg.LgM())
		if err != nil {
			return nil, err
		}
		pl.fplan = fplan
	}
	return e.Execute(ctx, pl, ds, opts...)
}

// PermuteGeneral applies an arbitrary bijection on addresses using the
// external merge-sort baseline. targetOf must map 0..N-1 onto itself.
// ctx follows the Execute cancellation contract.
func (e *Engine) PermuteGeneral(ctx context.Context, ds *Dataset, targetOf func(uint64) uint64, opts ...Option) (*Report, error) {
	s := e.overlay(opts)
	ds.sys.AcquireRun()
	defer ds.sys.ReleaseRun()
	res, err := engine.GeneralPermute(ctx, ds.sys, targetOf, s.opt)
	if err != nil {
		return nil, err
	}
	return &Report{Passes: res.Passes, ParallelIOs: res.ParallelIOs}, nil
}

// buildReport pairs the measured cost of running pl with the paper's
// bound expressions and the plan's planning metadata.
func buildReport(pl *Plan, res *engine.Result) *Report {
	cfg, g := pl.cfg, pl.RankGamma()
	return &Report{
		Class:        pl.class,
		Passes:       res.Passes,
		ParallelIOs:  res.ParallelIOs,
		PlanCached:   pl.cached,
		FusedFrom:    pl.FusedFrom(),
		RankGamma:    g,
		LowerBound:   bounds.LowerBound(cfg, g),
		RefinedLB:    bounds.RefinedLowerBound(cfg, g),
		UpperBound:   bounds.UpperBound(cfg, g),
		SortBound:    bounds.SortBound(cfg),
		SortBaseline: bounds.MergeSortIOs(cfg),
	}
}
