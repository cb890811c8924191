// Package cluster lifts the paper's parallel-disk decomposition one tier
// up, from disks inside one bmmcd daemon to a fleet of daemons: a
// coordinator places datasets on workers by consistent hashing, proxies
// the single-daemon HTTP surface unchanged, rebalances data on membership
// change by replaying the 16-byte record wire format between workers, and
// decomposes BMMC permutations over striped datasets into per-node
// sub-passes plus a block-exchange phase between nodes.
package cluster

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	bmmc "repro"
	"repro/internal/gf2"
)

// stripeConfig derives the geometry of one stripe of a k-striped dataset:
// N/k records on the same D disks with the same block size. Memory
// shrinks as needed to keep M < N' while staying at or above the BD
// floor; when it cannot, the dataset is too small for that many stripes.
func stripeConfig(cfg bmmc.Config, k int) (bmmc.Config, error) {
	if k < 2 || k&(k-1) != 0 {
		return bmmc.Config{}, fmt.Errorf("stripe count %d must be a power of two >= 2", k)
	}
	if cfg.N%k != 0 || cfg.N/k < 2 {
		return bmmc.Config{}, fmt.Errorf("cannot cut N=%d records into %d stripes", cfg.N, k)
	}
	sc := bmmc.Config{N: cfg.N / k, D: cfg.D, B: cfg.B, M: cfg.M}
	for sc.M >= sc.N {
		sc.M /= 2
	}
	if err := sc.Validate(); err != nil {
		return bmmc.Config{}, fmt.Errorf("geometry %v cannot be cut into %d stripes: %w", cfg, k, err)
	}
	return sc, nil
}

// decompose splits a BMMC permutation y = Ax ⊕ c over n-bit addresses
// into the two node-tier phases of a striped pass, treating the top κ
// address bits as the stripe (node) index s and the low n−κ bits as the
// within-stripe address:
//
//	A = | A_ll  A_lh |     y_lo = A_ll·x_lo ⊕ A_lh·s ⊕ c_lo
//	    | A_hl  A_hh |     y_hi = A_hl·x_lo ⊕ A_hh·s ⊕ c_hi
//
// When A_hl = 0 the target stripe depends on s alone, so the permutation
// is exactly a per-node sub-pass — stripe s runs the local BMMC
// (A_ll, A_lh·s ⊕ c_lo) on its own disks — followed by a block exchange
// that sends stripe s wholesale to slot nodeMap[s] = A_hh·s ⊕ c_hi. Both
// diagonal blocks inherit nonsingularity from A (det A = det A_ll ·
// det A_hh when A_hl = 0), so the locals are valid BMMC permutations and
// nodeMap is a permutation of the stripe indices.
//
// When A_hl ≠ 0 records cross stripes data-dependently; ok is false and
// the caller routes records through the coordinator instead.
func decompose(p bmmc.Permutation, kappa int) (locals []bmmc.Permutation, nodeMap []int, ok bool, err error) {
	n := p.Bits()
	if kappa <= 0 || kappa >= n {
		return nil, nil, false, fmt.Errorf("stripe bits κ=%d out of range for %d-bit addresses", kappa, n)
	}
	nl := n - kappa
	if !p.A.Submatrix(nl, n, 0, nl).IsZero() {
		return nil, nil, false, nil // records cross stripes: general path
	}
	all := p.A.Submatrix(0, nl, 0, nl)
	alh := p.A.Submatrix(0, nl, nl, n)
	ahh := p.A.Submatrix(nl, n, nl, n)
	cLo := p.C.Extract(0, nl)
	cHi := p.C.Extract(nl, n)

	k := 1 << kappa
	locals = make([]bmmc.Permutation, k)
	nodeMap = make([]int, k)
	for s := 0; s < k; s++ {
		lp, err := bmmc.New(all, alh.MulVec(gf2.Vec(s))^cLo)
		if err != nil {
			return nil, nil, false, fmt.Errorf("stripe-local block singular: %w", err)
		}
		locals[s] = lp
		nodeMap[s] = int(ahh.MulVec(gf2.Vec(s)) ^ cHi)
	}
	return locals, nodeMap, true, nil
}

// routeCheck is how many records a router goroutine moves between
// cancellation checks.
const routeCheck = 1 << 14

// routeRecords applies y = p(x) to a full record image in the 16-byte
// wire format — the coordinator-mediated exchange for permutations whose
// A_hl block mixes stripe and local bits. It fills the output in
// destination order, out[y] = in[p⁻¹(y)], walking the inverse (itself
// BMMC): one Apply at each chunk's first address, then one step-table XOR
// per record, p⁻¹(y+1) = p⁻¹(y) ⊕ Delta(TrailingZeros(y+1)). Writes are
// sequential. The target range is cut into one contiguous chunk per
// GOMAXPROCS; chunks write disjoint bytes, so they need no locks. O(N)
// coordinator memory, the documented cost of the general path. in must
// hold exactly 2^p.Bits() records.
func routeRecords(ctx context.Context, p bmmc.Permutation, in []byte) ([]byte, error) {
	inv := p.Inverse().Compile()
	n := uint64(len(in)) / bmmc.RecordBytes
	out := make([]byte, len(in))
	procs := uint64(runtime.GOMAXPROCS(0))
	chunk := (n + procs - 1) / procs
	var wg sync.WaitGroup
	for lo := uint64(0); lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			x := inv.Apply(lo)
			for sub := lo; sub < hi && ctx.Err() == nil; sub += routeCheck {
				for y := sub; y < min(sub+routeCheck, hi); y++ {
					*(*[bmmc.RecordBytes]byte)(out[y*bmmc.RecordBytes:]) = *(*[bmmc.RecordBytes]byte)(in[x*bmmc.RecordBytes:])
					x ^= inv.Delta(bits.TrailingZeros64(y + 1))
				}
			}
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// stripeWriter receives one gathered stripe into its fixed section of the
// coordinator's record image, refusing bytes past the section's end.
type stripeWriter struct {
	sec []byte
	n   int
}

func (w *stripeWriter) Write(b []byte) (int, error) {
	if len(b) > len(w.sec)-w.n {
		return 0, fmt.Errorf("long download: more than %d bytes", len(w.sec))
	}
	w.n += copy(w.sec[w.n:], b)
	return len(b), nil
}
