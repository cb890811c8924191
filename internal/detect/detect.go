// Package detect implements the run-time BMMC detection of Section 6: given
// a vector of N target addresses stored on the parallel disk system, form
// the only candidate characteristic matrix A and complement vector c the
// permutation could have, then verify every address against y = Ax XOR c.
//
// The candidate is built from ceil((lg(N/B)+1)/D) parallel reads using the
// paper's schedule: the block holding address 0 supplies c and the offset
// columns; blocks on power-of-two disks supply the disk columns; and blocks
// at power-of-two stripes supply the stripe columns, each unmasked by the
// already-known disk columns. Verification costs at most N/BD further
// parallel reads and stops at the first mismatch.
package detect

import (
	"fmt"

	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Result reports the outcome of a detection run.
type Result struct {
	IsBMMC bool       // whether the target vector is a BMMC permutation
	Perm   perm.BMMC  // the detected permutation, valid when IsBMMC
	Class  perm.Class // most specific subclass of Perm, valid when IsBMMC

	CandidateReads int   // parallel reads used to form (A, c)
	VerifyReads    int   // parallel reads used by the verification scan
	FailedAt       int64 // source address of the first mismatch, -1 if none
}

// ParallelReads returns the total parallel I/Os consumed.
func (r *Result) ParallelReads() int { return r.CandidateReads + r.VerifyReads }

// Permutation returns the detected permutation, or an error when the
// target vector was not BMMC. The returned value round-trips through
// Marshal/Parse — including a nonzero complement vector (affine offset) —
// so a detected vector can be written to a file or submitted to a
// permutation service verbatim.
func (r *Result) Permutation() (perm.BMMC, error) {
	if !r.IsBMMC {
		if r.FailedAt >= 0 {
			return perm.BMMC{}, fmt.Errorf("detect: target vector is not BMMC (first mismatch at source address %d)", r.FailedAt)
		}
		return perm.BMMC{}, fmt.Errorf("detect: target vector is not BMMC (candidate matrix singular)")
	}
	return r.Perm, nil
}

// CandidateReadBound returns the paper's bound ceil((lg(N/B)+1)/D) on the
// reads needed to form the candidate matrix and complement vector.
func CandidateReadBound(cfg pdm.Config) int {
	d := cfg.D
	return (cfg.LgN() - cfg.LgB() + 1 + d - 1) / d
}

// LoadTargetVector stores the target-address vector on the system's source
// portion: the record at address x carries targetOf(x) in its Key. Not
// counted as I/O (it is the experiment's input state).
func LoadTargetVector(sys *pdm.System, targetOf func(uint64) uint64) error {
	cfg := sys.Config()
	recs := make([]pdm.Record, cfg.N)
	for x := range recs {
		y := targetOf(uint64(x))
		recs[x] = pdm.Record{Key: y, Tag: pdm.TagFor(y)}
	}
	return sys.LoadRecords(sys.Source(), recs)
}

// Detect runs the full Section 6 procedure on the target-address vector
// stored in portion p of sys. It never moves records; all reads land in
// the frames of one Buffer and are counted by the system's statistics.
func Detect(sys *pdm.System, p pdm.Portion) (*Result, error) {
	cfg := sys.Config()
	res := &Result{FailedAt: -1}
	buf := sys.AcquireBuffer()

	a, c, err := formCandidate(sys, p, buf, res)
	if err != nil {
		return nil, err
	}
	// Step 3: the characteristic matrix must be nonsingular for any BMMC
	// permutation. (If the vector really is a permutation and verification
	// would succeed, A is necessarily nonsingular; a singular candidate
	// cannot verify, so we stop early.)
	cand, permErr := perm.New(a, c)
	if permErr != nil {
		return res, nil
	}

	// Step 4: verify all N addresses with at most N/BD parallel reads,
	// terminating at the first mismatch.
	for stripe := 0; stripe < cfg.Stripes(); stripe++ {
		if err := sys.ReadStripe(p, stripe, 0, buf); err != nil {
			return nil, err
		}
		res.VerifyReads++
		base := uint64(stripe) * uint64(cfg.B*cfg.D)
		for i, r := range buf.Records()[:cfg.B*cfg.D] {
			x := base + uint64(i)
			if cand.Apply(x) != r.Key {
				res.FailedAt = int64(x)
				return res, nil
			}
		}
	}
	res.IsBMMC = true
	res.Perm = cand
	res.Class = cand.Classify(cfg.LgB(), cfg.LgM())
	return res, nil
}

// formCandidate executes step 2: build the candidate (A, c) with
// ceil((lg(N/B)+1)/D) parallel reads.
func formCandidate(sys *pdm.System, p pdm.Portion, buf *pdm.Buffer, res *Result) (gf2.Matrix, gf2.Vec, error) {
	cfg := sys.Config()
	n, b, d := cfg.LgN(), cfg.LgB(), cfg.LgD()
	s := n - b - d // stripe-field width
	a := gf2.New(n, n)
	var c gf2.Vec

	// First parallel read: the block of address 0, the unit-vector blocks
	// for the d disk bits (disks 1, 2, 4, ..., D/2 at stripe 0), and as
	// many stripe-bit blocks as fit on the remaining (non-power-of-two)
	// disks at stripes 1, 2, 4, ....
	var jobs []colJob
	jobs = append(jobs, colJob{disk: 0, stripe: 0, kind: 0})
	for j := 0; j < d; j++ {
		jobs = append(jobs, colJob{disk: 1 << uint(j), stripe: 0, kind: 1, idx: j})
	}
	t := 0
	for q := 1; q < cfg.D && t < s; q++ {
		if q&(q-1) == 0 {
			continue // power-of-two disks already used
		}
		jobs = append(jobs, colJob{disk: q, stripe: 1 << uint(t), kind: 2, idx: t})
		t++
	}
	if err := runJobs(sys, p, buf, &a, &c, jobs, res); err != nil {
		return a, c, err
	}

	// Subsequent reads: D stripe bits per read on all disks.
	for t < s {
		jobs = jobs[:0]
		for q := 0; q < cfg.D && t < s; q++ {
			jobs = append(jobs, colJob{disk: q, stripe: 1 << uint(t), kind: 2, idx: t})
			t++
		}
		if err := runJobs(sys, p, buf, &a, &c, jobs, res); err != nil {
			return a, c, err
		}
	}
	return a, c, nil
}

// colJob names one block to read while forming the candidate, and which
// column(s) of the matrix its first record determines.
type colJob struct {
	disk, stripe int
	kind         int // 0: base block, 1: disk bit, 2: stripe bit
	idx          int // the disk-bit index j or stripe-bit index t
}

// runJobs issues one parallel read of the given block jobs into buf and
// extracts the complement vector and matrix columns they determine, per
// eq. (20).
func runJobs(sys *pdm.System, p pdm.Portion, buf *pdm.Buffer, a *gf2.Matrix, c *gf2.Vec, jobs []colJob, res *Result) error {
	cfg := sys.Config()
	b, d := cfg.LgB(), cfg.LgD()
	ios := make([]pdm.BlockIO, len(jobs))
	for i, j := range jobs {
		ios[i] = pdm.BlockIO{Disk: j.disk, Block: j.stripe, Frame: i}
	}
	if err := sys.ParallelReadGroup(p, [][]pdm.BlockIO{ios}, buf); err != nil {
		return err
	}
	res.CandidateReads++
	for i, j := range jobs {
		frame := buf.Frame(i)
		switch j.kind {
		case 0:
			// Address 0 gives c; addresses 2^k (k < b) give offset columns.
			*c = gf2.Vec(frame[0].Key)
			for k := 0; k < b; k++ {
				if 1<<uint(k) >= cfg.B {
					return fmt.Errorf("detect: internal error: offset unit vector outside block")
				}
				a.SetCol(k, gf2.Vec(frame[1<<uint(k)].Key)^*c)
			}
		case 1:
			// First record of (disk 2^j, stripe 0) has source address
			// 2^(b+j): a unit vector.
			a.SetCol(b+j.idx, gf2.Vec(frame[0].Key)^*c)
		case 2:
			// First record of (disk q, stripe 2^t) has source address
			// 2^(b+d+t) | q<<b; subtract the known disk columns (eq. 20).
			col := gf2.Vec(frame[0].Key) ^ *c
			for jj := 0; jj < d; jj++ {
				if j.disk>>uint(jj)&1 == 1 {
					col ^= a.Col(b + jj)
				}
			}
			a.SetCol(b+d+j.idx, col)
		}
	}
	return nil
}
