// Package core assembles the paper's contribution into the objects the
// public API exposes: a Dataset (records at rest on a storage Backend under
// one machine Config), a stateless Engine (execution options plus the plan
// cache) that drives any number of Datasets, and the Plan joining them.
// Run-time BMMC detection (Section 6) rounds the package out.
package core

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// DefaultPlanCacheEntries is the plan-cache capacity an Engine gets when
// WithPlanCache is not specified.
const DefaultPlanCacheEntries = 32

// Option configures an Engine or a Dataset at construction (and, for
// Engine methods, per call). The execution options (WithPipeline,
// WithConcurrentIO) tune wall-clock speed only and never change the
// permuted result or the measured parallel-I/O counts. The planning
// options (WithFusion, WithPlanCache) sit above execution: fusion can only
// lower the measured cost — never the result — and caching only skips
// repeated planning work. The storage options (WithBackend,
// WithConcurrentIO) are read by Dataset constructors; everything else by
// Engine constructors.
type Option func(*settings)

type settings struct {
	opt          engine.Options
	concurrentIO bool
	fuse         bool
	cacheSize    int
	backend      pdm.Backend
}

func defaultSettings() settings {
	return settings{opt: engine.DefaultOptions(), fuse: true, cacheSize: DefaultPlanCacheEntries}
}

// WithPipeline enables or disables double-buffered prefetching in the pass
// runner (the next memoryload is read while the current one is permuted and
// written). On by default.
func WithPipeline(on bool) Option {
	return func(s *settings) { s.opt.Pipeline = on }
}

// WithConcurrentIO moves every transfer of each storage batch on its own
// goroutine (pdm.System.SetConcurrent), letting file-backed disks overlap
// real storage latency the way D physical spindles would. Off by default.
// A storage option: read by Dataset constructors.
func WithConcurrentIO(on bool) Option {
	return func(s *settings) { s.concurrentIO = on }
}

// WithFusion enables or disables pass fusion for factored permutations:
// adjacent passes of the Section 5 factorization whose GF(2) composition is
// still one-pass executable (MRC, MLD, or inverse-MLD) are merged before
// execution, lowering the measured parallel-I/O count for permutations the
// greedy factoring over-splits. The permuted records are identical either
// way. On by default.
func WithFusion(on bool) Option {
	return func(s *settings) { s.fuse = on }
}

// WithPlanCache sets the capacity of the LRU plan cache, in plans. A
// Plan of a factored permutation whose plan is cached skips the GF(2)
// factorization (and fusion) entirely. n <= 0 disables caching. The default
// is DefaultPlanCacheEntries.
func WithPlanCache(n int) Option {
	return func(s *settings) { s.cacheSize = n }
}

// WithBackend selects the storage backend a Dataset's disk system lives
// on: pdm.MemBackend() (the default), pdm.FileBackend(dir),
// pdm.ShardedFileBackend(dirs...), or any user implementation of
// pdm.Backend. The Dataset opens and owns the backend; Close closes it.
func WithBackend(b pdm.Backend) Option {
	return func(s *settings) { s.backend = b }
}

// WithProgress installs a per-pass/per-memoryload progress callback,
// invoked on the executing goroutine between counted parallel I/Os. It
// must be cheap, it observes execution without altering it, and it must
// not touch the Dataset being executed (the run lock is held). Services
// pass it per Execute call to track jobs on a shared Engine.
func WithProgress(fn func(engine.PassEvent)) Option {
	return func(s *settings) { s.opt.Progress = fn }
}

// BatchReport pairs the per-job reports of a PermuteAll or ExecuteAll run
// with the aggregate cost and the plan-cache effectiveness over the batch.
type BatchReport struct {
	Jobs        []*Report // one per input permutation, in order
	Passes      int       // total one-pass permutations performed
	ParallelIOs int       // total measured parallel I/Os
	CacheHits   int       // factored jobs whose plan came from the cache
	Planned     int       // factored jobs that paid for a fresh factorization
}

func (r *BatchReport) String() string {
	return fmt.Sprintf("batch: %d jobs, %d passes, %d parallel I/Os (%d plans cached, %d planned)",
		len(r.Jobs), r.Passes, r.ParallelIOs, r.CacheHits, r.Planned)
}

// Report pairs a run's measured cost with the paper's bound expressions
// and the planning metadata of the run.
type Report struct {
	Class       perm.Class // class the permutation was dispatched as (incl. ClassInvMLD)
	Passes      int        // one-pass permutations performed
	ParallelIOs int        // measured parallel I/Os

	PlanCached bool // the planning result came from the plan cache
	FusedFrom  int  // pass count before fusion (0: no fusion applied)

	RankGamma    int     // rank A_{b..n-1,0..b-1}
	LowerBound   float64 // Theorem 3 expression
	RefinedLB    float64 // Section 7 lower bound
	UpperBound   int     // Theorem 21 guarantee
	SortBound    float64 // asymptotic sorting expression (N/BD)lg(N/B)/lg(M/B)
	SortBaseline int     // exact parallel I/Os of the merge-sort baseline
}

func (r *Report) String() string {
	s := fmt.Sprintf("%s: %d passes, %d parallel I/Os (rank gamma %d; LB %.0f, refined LB %.0f, UB %d)",
		r.Class, r.Passes, r.ParallelIOs, r.RankGamma, r.LowerBound, r.RefinedLB, r.UpperBound)
	if r.FusedFrom > r.Passes {
		s += fmt.Sprintf(" [fused from %d passes]", r.FusedFrom)
	}
	if r.PlanCached {
		s += " [plan cached]"
	}
	return s
}

// DetectTargets runs Section 6 detection on a target-address vector,
// loading it onto a scratch disk system of the same geometry and returning
// the detection result.
func DetectTargets(cfg pdm.Config, targetOf func(uint64) uint64) (*detect.Result, error) {
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := detect.LoadTargetVector(sys, targetOf); err != nil {
		return nil, err
	}
	return detect.Detect(sys, sys.Source())
}
