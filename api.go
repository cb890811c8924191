package bmmc

import (
	"math/rand"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Config fixes the Vitter-Shriver model parameters: N records, D disks,
// B records per block, M records of memory. All powers of two with
// BD <= M < N.
type Config = pdm.Config

// Record is the unit of data stored on the simulated disks.
type Record = pdm.Record

// Stats reports parallel-I/O counts for a run.
type Stats = pdm.Stats

// Permutation is a BMMC permutation y = Ax XOR c.
type Permutation = perm.BMMC

// Class identifies a permutation's most specific subclass
// (identity / MRC / MLD / BMMC).
type Class = perm.Class

// Matrix is an n x n bit matrix over GF(2).
type Matrix = gf2.Matrix

// Vec is a bit vector over GF(2) (component i in bit i).
type Vec = gf2.Vec

// Report pairs a run's measured cost with the paper's bounds.
type Report = core.Report

// BatchReport carries the per-job reports and aggregate cost of an
// Engine.PermuteAll or Engine.ExecuteAll batch, including plan-cache
// effectiveness.
type BatchReport = core.BatchReport

// CacheStats reports plan-cache hits, misses, and evictions for an Engine
// (see Engine.CacheStats).
type CacheStats = core.CacheStats

// Detection reports the outcome of run-time BMMC detection (Section 6).
type Detection = detect.Result

// Exported class constants. ClassInvMLD marks a permutation dispatched as
// the inverse of an MLD permutation (one pass, independent reads, striped
// writes — the Section 7 extension); Report.Class uses it.
const (
	ClassIdentity = perm.ClassIdentity
	ClassMRC      = perm.ClassMRC
	ClassMLD      = perm.ClassMLD
	ClassBMMC     = perm.ClassBMMC
	ClassInvMLD   = perm.ClassInvMLD
)

// Option tunes an Engine (planning and execution) or a Dataset (storage).
// The execution options (pipelining, concurrent disk dispatch) change
// wall-clock behavior only: the permuted records and the measured
// parallel-I/O counts are identical for every setting. The planning
// options (pass fusion, plan caching) sit above execution: fusion can only
// lower the measured parallel-I/O count, and caching only skips repeated
// factorization work — the permuted records are always identical.
// The storage options (WithBackend, WithConcurrentIO) configure
// CreateDataset and OpenDataset; the rest configure NewEngine and, per
// call, Engine methods.
type Option = core.Option

// WithPipeline enables or disables the double-buffered pass pipeline that
// prefetches the next memoryload while the current one is permuted and
// written. On by default.
func WithPipeline(on bool) Option { return core.WithPipeline(on) }

// WithConcurrentIO moves every transfer of each storage batch — the
// per-disk blocks of a parallel I/O, or the coalesced runs of a group of
// them — on its own goroutine, so file-backed disks overlap real storage
// latency like D independent spindles. Off by default.
func WithConcurrentIO(on bool) Option { return core.WithConcurrentIO(on) }

// WithFusion enables or disables pass fusion: adjacent passes of the
// Section 5 factorization whose GF(2) composition is still one-pass
// executable are merged before execution, lowering the measured
// parallel-I/O count for permutations the greedy factoring over-splits.
// On by default.
func WithFusion(on bool) Option { return core.WithFusion(on) }

// DefaultPlanCacheEntries is the plan-cache capacity an Engine gets when
// WithPlanCache is not specified.
const DefaultPlanCacheEntries = core.DefaultPlanCacheEntries

// WithPlanCache sets the capacity (in plans) of the LRU plan cache that
// lets repeated permutations skip re-factorization; n <= 0 disables
// caching. The default is DefaultPlanCacheEntries.
func WithPlanCache(n int) Option { return core.WithPlanCache(n) }

// MakeRecord returns the canonical record for a source address.
func MakeRecord(key uint64) Record { return pdm.MakeRecord(key) }

// RecordBytes is the wire size of one record: the unit of Dataset.Load,
// Dataset.Dump, and the file backends' on-disk layout.
const RecordBytes = pdm.RecordBytes

// DecodeRecord reads a record from RecordBytes little-endian bytes — the
// inverse of Record.Encode and the format Dataset.Dump emits.
func DecodeRecord(src []byte) Record { return pdm.DecodeRecord(src) }

// New validates a characteristic matrix and complement vector and returns
// the permutation y = Ax XOR c.
func New(a Matrix, c Vec) (Permutation, error) { return perm.New(a, c) }

// Identity returns the identity permutation on n-bit addresses.
func Identity(n int) Permutation { return perm.Identity(n) }

// Transpose returns the permutation transposing a 2^lgR x 2^lgS row-major
// matrix.
func Transpose(lgR, lgS int) Permutation { return perm.Transpose(lgR, lgS) }

// BitReversal returns the FFT bit-reversal permutation on n-bit addresses.
func BitReversal(n int) Permutation { return perm.BitReversal(n) }

// VectorReversal returns the permutation x -> N-1-x.
func VectorReversal(n int) Permutation { return perm.VectorReversal(n) }

// GrayCode returns the binary-reflected Gray code permutation (an MRC
// permutation: one pass for any memory size).
func GrayCode(n int) Permutation { return perm.GrayCode(n) }

// GrayCodeInverse returns the inverse Gray code permutation.
func GrayCodeInverse(n int) Permutation { return perm.GrayCodeInverse(n) }

// Hypercube returns the permutation x -> x XOR mask.
func Hypercube(n int, mask uint64) Permutation { return perm.Hypercube(n, mask) }

// RotateBits returns the stride permutation y_t = x_{(t+k) mod n}.
func RotateBits(n, k int) Permutation { return perm.RotateBits(n, k) }

// BitPermutation returns the BPC permutation y_t = x_{pi[t]} XOR c_t.
func BitPermutation(pi []int, c uint64) (Permutation, error) {
	return perm.BitPermutation(pi, c)
}

// NewRand returns a seeded random source for the Random* generators. The
// library never touches the global math/rand state: every random choice is
// drawn from a *rand.Rand the caller owns and seeds, so concurrent callers
// get reproducible, race-free permutation generation by giving each
// goroutine its own source.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// RandomPermutation returns a uniformly random BMMC permutation on n-bit
// addresses drawn from rng (see NewRand).
func RandomPermutation(rng *rand.Rand, n int) Permutation {
	return perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
}

// RandomWithRankGamma returns a random BMMC permutation whose gamma
// submatrix (rows b.., columns 0..b-1) has rank exactly g — the knob that
// controls the paper's I/O bounds.
func RandomWithRankGamma(rng *rand.Rand, n, b, g int) Permutation {
	return perm.MustNew(gf2.RandomNonsingularWithGamma(rng, n, b, g), gf2.RandomVec(rng, n))
}

// DetectTargets runs the Section 6 run-time detection over a vector of
// target addresses: it forms the unique candidate (A, c), verifies all N
// addresses, and reports the result together with its parallel-read cost.
func DetectTargets(cfg Config, targetOf func(uint64) uint64) (*Detection, error) {
	return core.DetectTargets(cfg, targetOf)
}

// Bound formulas (see internal/bounds for the full catalog).

// LowerBoundIOs returns the Theorem 3 lower-bound expression
// (N/BD)(1 + rank(gamma)/lg(M/B)).
func LowerBoundIOs(cfg Config, rankGamma int) float64 {
	return bounds.LowerBound(cfg, rankGamma)
}

// UpperBoundIOs returns the Theorem 21 guarantee
// (2N/BD)(ceil(rank(gamma)/lg(M/B)) + 2).
func UpperBoundIOs(cfg Config, rankGamma int) int {
	return bounds.UpperBound(cfg, rankGamma)
}

// RefinedLowerBoundIOs returns the Section 7 lower bound
// (2N/BD) rank(gamma) / (2/(e ln 2) + lg(M/B)).
func RefinedLowerBoundIOs(cfg Config, rankGamma int) float64 {
	return bounds.RefinedLowerBound(cfg, rankGamma)
}

// SortBoundIOs returns the general-permutation sorting expression
// (N/BD) lg(N/B)/lg(M/B).
func SortBoundIOs(cfg Config) float64 { return bounds.SortBound(cfg) }

// DetectionBoundReads returns the Section 6 detection cost bound
// N/BD + ceil((lg(N/B)+1)/D).
func DetectionBoundReads(cfg Config) int { return bounds.DetectionBound(cfg) }

// MarshalPermutation renders p in the line-oriented text format that
// ParsePermutation accepts (header, complement, one binary row per line).
func MarshalPermutation(p Permutation) []byte { return p.Marshal() }

// ParsePermutation reads the MarshalPermutation format, validating shape
// and nonsingularity.
func ParsePermutation(data []byte) (Permutation, error) { return perm.Parse(data) }
