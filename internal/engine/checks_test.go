package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/pdm"
	"repro/internal/perm"
)

// swapBits returns the bit permutation exchanging address bits i and j.
func swapBits(t *testing.T, n, i, j int) perm.BMMC {
	t.Helper()
	pi := make([]int, n)
	for k := range pi {
		pi[k] = k
	}
	pi[i], pi[j] = j, i
	p, err := perm.BitPermutation(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStrategyRunTimeChecks drives each one-pass strategy through runPass
// around a permutation outside its class, bypassing the entry points'
// class checks, and requires the strategy's own run-time check to refuse
// it with the source portion untouched. Swapping bit 0 with bit m reaches
// the checks through the record kernel only; swapping bit b with bit m
// keeps the low lg B bits in place, so the coalesced kernel reaches them
// too.
func TestStrategyRunTimeChecks(t *testing.T) {
	defer func(rk bool) { forceRecordKernel = rk }(forceRecordKernel)
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	mrc := func(p perm.BMMC) passStrategy {
		a := p.Compile()
		return &mrcStrategy{cfg: cfg, applier: a, run: runLength(a.RunBits(), m)}
	}
	mld := func(p perm.BMMC) passStrategy {
		a := p.Compile()
		return &mldStrategy{cfg: cfg, applier: a, run: runLength(a.RunBits(), m)}
	}
	invMLD := func(p perm.BMMC) passStrategy {
		a := p.Compile()
		return &invMLDStrategy{cfg: cfg, applier: a, invApplier: p.Inverse().Compile(), run: runLength(a.RunBits(), b)}
	}
	for _, tc := range []struct {
		name  string
		p     perm.BMMC
		build func(perm.BMMC) passStrategy
		want  string
	}{
		{"MRC/swap0m", swapBits(t, n, 0, m), mrc, "MRC pass scattered memoryload 0 across targets"},
		{"MRC/swapbm", swapBits(t, n, b, m), mrc, "MRC pass scattered memoryload 0 across targets"},
		{"MLD/swap0m", swapBits(t, n, 0, m), mld, "MLD property 2 violated"},
		{"MLD/swapbm", swapBits(t, n, b, m), mld, "MLD property 2 violated"},
		{"MLD^-1/swap0m", swapBits(t, n, 0, m), invMLD, "draws from more than M/B=16 source blocks"},
		{"MLD^-1/swapbm", swapBits(t, n, b, m), invMLD, "inverse-MLD balance violated"},
	} {
		p := tc.p
		if p.IsMRC(m) || p.IsMLD(b, m) || p.Inverse().IsMLD(b, m) {
			t.Fatalf("%s: premise: %v is one-pass executable", tc.name, p)
		}
		kernels := []bool{true}
		if p.Compile().RunBits() > 0 {
			kernels = append(kernels, false)
		}
		for _, record := range kernels {
			for _, opt := range []Options{seqOpt, pipeOpt} {
				forceRecordKernel = record
				st := tc.build(p)
				if got := st.kernel() == "record"; got != record {
					t.Fatalf("%s: strategy picked kernel %q", tc.name, st.kernel())
				}
				sys := newLoaded(t, cfg)
				src := sys.Source()
				err := runPass(context.Background(), sys, st, opt)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s kernel=%s pipeline=%v: got %v, want an error containing %q",
						tc.name, st.kernel(), !opt.sequential, err, tc.want)
				}
				if sys.Source() != src {
					t.Fatalf("%s kernel=%s pipeline=%v: a refused pass swapped the portions", tc.name, st.kernel(), !opt.sequential)
				}
				if err := VerifyBMMC(sys, src, perm.Identity(n)); err != nil {
					t.Fatalf("%s kernel=%s pipeline=%v: source portion disturbed: %v", tc.name, st.kernel(), !opt.sequential, err)
				}
			}
		}
	}
}
