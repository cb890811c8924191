package bmmc

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/pdm"
)

// Option tunes an Engine (planning and progress) or a Dataset (storage).
// The storage options (WithBackend, WithConcurrentIO) configure
// CreateDataset and OpenDataset; the rest configure NewEngine and, per
// call, Engine methods. Concurrent disk dispatch changes wall-clock
// behavior only: the permuted records and the measured parallel-I/O
// counts are identical either way. Pass fusion sits above execution: it
// can only lower the measured parallel-I/O count, never change the
// permuted records.
type Option func(*settings)

type settings struct {
	opt          engine.Options
	concurrentIO bool
	fuse         bool
	backend      Backend
}

func defaultSettings() settings {
	return settings{fuse: true}
}

// WithConcurrentIO moves every transfer of each storage batch — the
// per-disk blocks of a parallel I/O, or the coalesced runs of a group of
// them — on its own goroutine, so file-backed disks overlap real storage
// latency like D independent spindles. Off by default. A storage option:
// read by CreateDataset and OpenDataset.
func WithConcurrentIO(on bool) Option {
	return func(s *settings) { s.concurrentIO = on }
}

// WithFusion enables or disables pass fusion: adjacent passes of the
// Section 5 factorization whose GF(2) composition is still one-pass
// executable (MRC, MLD, or inverse-MLD) are merged before execution,
// lowering the measured parallel-I/O count for permutations the greedy
// factoring over-splits. The permuted records are identical either way.
// On by default.
func WithFusion(on bool) Option {
	return func(s *settings) { s.fuse = on }
}

// WithBackend selects a Dataset's storage backend: MemBackend() (the
// default), FileBackend(dir), ShardedBackend(dirs...), or any caller
// implementation of Backend. The Dataset opens and owns it: Dataset.Close
// closes it.
func WithBackend(b Backend) Option {
	return func(s *settings) { s.backend = b }
}

// WithProgress installs a callback receiving a PassEvent at every pass
// start and after every completed memoryload, for long-run reporting and
// instrumentation. The pass-start event runs on the executing goroutine;
// a completed-memoryload event runs on the pass's writer goroutine once
// that memoryload's writes are counted and before any later one's. Events
// arrive in order and never overlap. The callback must be cheap, it
// observes execution without altering results or I/O counts, and it must
// not touch the Dataset being executed (the run lock is held). Services
// pass it per Execute call to track jobs on a shared Engine.
func WithProgress(fn func(PassEvent)) Option {
	return func(s *settings) { s.opt.Progress = fn }
}

// Report pairs a run's measured cost with the paper's bound expressions
// and the planning metadata of the run.
type Report struct {
	Class       Class // class the permutation was dispatched as (incl. ClassInvMLD)
	Passes      int   // one-pass permutations performed
	ParallelIOs int   // measured parallel I/Os

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

// DetectTargets runs the Section 6 run-time detection over a vector of
// target addresses: it loads the vector onto a scratch RAM disk system of
// the same geometry, forms the unique candidate (A, c), verifies all N
// addresses, and reports the result together with its parallel-read cost.
func DetectTargets(cfg Config, targetOf func(uint64) uint64) (*Detection, error) {
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := detect.LoadTargetVector(sys, targetOf); err != nil {
		return nil, err
	}
	return detect.Detect(sys)
}
