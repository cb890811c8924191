// Package bounds collects every closed-form I/O bound stated in the paper —
// the Theorem 3 lower bound, the Theorem 21 upper bound, the Section 7
// refined lower bound, the Table 1 pass counts of the earlier algorithms in
// [4] (including H(N,M,B)), the general-permutation and sorting bounds, the
// Vitter-Shriver transposition bound, and the Section 6 detection cost —
// together with the potential-function machinery of the lower-bound proof.
//
// The experiment harness evaluates these formulas next to measured parallel
// I/O counts; EXPERIMENTS.md records the comparisons.
package bounds

import (
	"math"

	"repro/internal/pdm"
)

// LgMB returns lg(M/B) = m - b, the denominator in every pass-count bound.
func LgMB(cfg pdm.Config) int { return cfg.LgM() - cfg.LgB() }

// LowerBound returns the Theorem 3 universal lower bound expression
// (N/BD)(1 + rank(gamma)/lg(M/B)) — the Omega() argument, without a
// constant factor.
func LowerBound(cfg pdm.Config, rankGamma int) float64 {
	return float64(cfg.Stripes()) * (1 + float64(rankGamma)/float64(LgMB(cfg)))
}

// UpperBound returns the exact Theorem 21 cost guarantee
// 2N/BD * (ceil(rank(gamma)/lg(M/B)) + 2) in parallel I/Os.
func UpperBound(cfg pdm.Config, rankGamma int) int {
	return cfg.PassIOs() * (ceilDiv(rankGamma, LgMB(cfg)) + 2)
}

// RefinedLowerBound returns the Section 7 lower bound with its explicit
// constant: 2N/BD * rank(gamma) / (2/(e ln 2) + lg(M/B)) parallel I/Os.
func RefinedLowerBound(cfg pdm.Config, rankGamma int) float64 {
	return float64(cfg.PassIOs()) * float64(rankGamma) / (2/(math.E*math.Ln2) + float64(LgMB(cfg)))
}

// TrivialLowerBound returns the Lemma 9 bound for non-identity BMMC
// permutations: at least N/2B block reads on one disk, i.e. N/2BD parallel
// I/Os.
func TrivialLowerBound(cfg pdm.Config) float64 {
	return float64(cfg.N) / float64(2*cfg.B*cfg.D)
}

// DeltaMax returns the Section 7 bound on the potential increase of a
// single read: B * (2/(e ln 2) + lg(M/B)).
func DeltaMax(cfg pdm.Config) float64 {
	return float64(cfg.B) * (2/(math.E*math.Ln2) + float64(LgMB(cfg)))
}

// SafeDeltaMax returns the elementary per-read potential cap
// B * (1/ln 2 + lg(M/B)), derived from m lg(1+B/m) <= B/ln 2 and
// b lg((m+b)/b) <= B lg(M/B). The Section 7 constant 2/(e ln 2) ~ 1.06 is
// tighter than 1/ln 2 ~ 1.44; our simple-I/O replay (simpleio.go) measures
// actual read deltas that can land between the two at small M/B, so the
// empirical assertions use this provable cap while RefinedLowerBound keeps
// the paper's constant (see EXPERIMENTS.md).
func SafeDeltaMax(cfg pdm.Config) float64 {
	return float64(cfg.B) * (1/math.Ln2 + float64(LgMB(cfg)))
}

// H returns H(N,M,B) of equation (1), the additive pass term of the old
// BMMC algorithm in [4]:
//
//	4*ceil(lg B / lg(M/B)) + 9     if M <= sqrt(N)
//	4*ceil(lg(N/B) / lg(M/B)) + 1  if sqrt(N) < M < sqrt(NB)
//	5                              if sqrt(NB) <= M
func H(cfg pdm.Config) int {
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	w := m - b
	switch {
	case 2*m <= n: // M <= sqrt(N)
		return 4*ceilDiv(b, w) + 9
	case 2*m < n+b: // sqrt(N) < M < sqrt(NB)
		return 4*ceilDiv(n-b, w) + 1
	default: // sqrt(NB) <= M
		return 5
	}
}

// OldBMMCPasses returns the pass count of the BMMC algorithm of [4] from
// Table 1: 2*ceil((lg M - r)/lg(M/B)) + H(N,M,B), where r is the rank of
// the leading lg M x lg M submatrix of the characteristic matrix.
func OldBMMCPasses(cfg pdm.Config, rankLeading int) int {
	return 2*ceilDiv(cfg.LgM()-rankLeading, LgMB(cfg)) + H(cfg)
}

// OldBPCPasses returns the pass count of the BPC algorithm of [4] from
// Table 1: 2*ceil(kappa(A)/lg(M/B)) + 1, where kappa is the cross-rank of
// equation (3).
func OldBPCPasses(cfg pdm.Config, crossRank int) int {
	return 2*ceilDiv(crossRank, LgMB(cfg)) + 1
}

// NewBMMCPasses returns this paper's pass count,
// ceil(rank(gamma)/lg(M/B)) + 2 (Theorem 21).
func NewBMMCPasses(cfg pdm.Config, rankGamma int) int {
	return ceilDiv(rankGamma, LgMB(cfg)) + 2
}

// SortBound returns the asymptotic sorting expression
// (N/BD) * lg(N/B)/lg(M/B), the second term of the Vitter-Shriver
// general-permutation bound.
func SortBound(cfg pdm.Config) float64 {
	return float64(cfg.Stripes()) * float64(cfg.LgN()-cfg.LgB()) / float64(LgMB(cfg))
}

// GeneralPermBound returns min(N/D, sort bound), the full Vitter-Shriver
// general-permutation upper bound expression.
func GeneralPermBound(cfg pdm.Config) float64 {
	nd := float64(cfg.N) / float64(cfg.D)
	if s := SortBound(cfg); s < nd {
		return s
	}
	return nd
}

// MergeSortIOs returns the exact parallel-I/O count of the striped external
// merge sort baseline in internal/engine: 2N/BD passes times
// (1 + ceil(log_fanIn(N/M))) with fan-in M/BD - 1.
func MergeSortIOs(cfg pdm.Config) int {
	fanIn := cfg.M/(cfg.B*cfg.D) - 1
	if fanIn < 2 {
		return 0
	}
	passes := 1
	for run := cfg.StripesPerMemoryload(); run < cfg.Stripes(); run *= fanIn {
		passes++
	}
	return passes * cfg.PassIOs()
}

// TransposeBound returns the Vitter-Shriver matrix-transposition bound
// (N/BD)(1 + lg(min(B, R, S, N/B)) / lg(M/B)) for an R x S matrix.
func TransposeBound(cfg pdm.Config, lgR, lgS int) float64 {
	lgMin := cfg.LgB()
	if lgR < lgMin {
		lgMin = lgR
	}
	if lgS < lgMin {
		lgMin = lgS
	}
	if nb := cfg.LgN() - cfg.LgB(); nb < lgMin {
		lgMin = nb
	}
	return float64(cfg.Stripes()) * (1 + float64(lgMin)/float64(LgMB(cfg)))
}

// DetectionBound returns the Section 6 total detection cost
// N/BD + ceil((lg(N/B)+1)/D) in parallel reads.
func DetectionBound(cfg pdm.Config) int {
	return cfg.Stripes() + ceilDiv(cfg.LgN()-cfg.LgB()+1, cfg.D)
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
