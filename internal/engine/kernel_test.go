package engine

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// liftLow embeds an (n-k)-bit characteristic matrix into n bits acting on
// the high bits only: block-diag(I_k, hi). The result fixes the low k
// address bits, so the lifted permutation moves aligned 2^k runs intact —
// exactly the shape the run-coalescing kernels accelerate — and membership
// in MRC/MLD survives the lift (the identity block contributes nothing to
// the class-defining submatrices).
func liftLow(hi gf2.Matrix, k int) gf2.Matrix {
	n := k + hi.Rows()
	a := gf2.Identity(n)
	a.SetSubmatrix(k, k, hi)
	return a
}

// runBoth executes the same pass with the coalesced kernel and with the
// per-record kernel forced, on identically loaded systems, and requires
// byte-identical records and identical I/O statistics. The kernels must be
// observationally indistinguishable; only wall-clock may differ.
func runBothKernels(t *testing.T, cfg pdm.Config, what string, run func(*pdm.System) error) {
	t.Helper()
	coalesced := finalLayout(t, cfg, run)
	forceRecordKernel = true
	defer func() { forceRecordKernel = false }()
	record := finalLayout(t, cfg, run)
	sameLayout(t, coalesced, record, what+": coalesced vs record kernel")

	sysA, sysB := newLoaded(t, cfg), newLoaded(t, cfg)
	forceRecordKernel = false
	if err := run(sysA); err != nil {
		t.Fatal(err)
	}
	forceRecordKernel = true
	if err := run(sysB); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sysA.Stats(), sysB.Stats()) {
		t.Fatalf("%s: kernels diverge on I/O statistics: %+v vs %+v", what, sysA.Stats(), sysB.Stats())
	}
}

// TestCoalescedMRCMatchesRecordKernel: MRC passes over permutations fixing
// k low bits produce the same layout and I/O counts with either kernel.
func TestCoalescedMRCMatchesRecordKernel(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(540))
	n, m := cfg.LgN(), cfg.LgM()
	for _, k := range []int{1, 3, 6} {
		a := liftLow(gf2.RandomMRC(rng, n-k, m-k), k)
		c := gf2.RandomVec(rng, n) &^ gf2.Mask(k)
		p := perm.MustNew(a, c)
		if got := p.ContiguousRunBits(); got < k {
			t.Fatalf("k=%d: constructed permutation has run bits %d", k, got)
		}
		runBothKernels(t, cfg, "MRC", func(s *pdm.System) error { return RunMRCPass(context.Background(), s, p, Options{}) })
	}
}

// TestCoalescedMLDMatchesRecordKernel: same for MLD passes, where the
// coalesced kernel additionally folds the per-record property-2 accounting
// into per-block spans.
func TestCoalescedMLDMatchesRecordKernel(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(541))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	for _, k := range []int{1, 2, 3} {
		a := liftLow(gf2.RandomMLD(rng, n-k, b-k, m-k), k)
		c := gf2.RandomVec(rng, n) &^ gf2.Mask(k)
		p := perm.MustNew(a, c)
		if !p.IsMLD(b, m) {
			t.Fatalf("k=%d: lifted permutation lost MLD membership", k)
		}
		runBothKernels(t, cfg, "MLD", func(s *pdm.System) error { return RunMLDPass(context.Background(), s, p, Options{}) })
	}
}

// TestCoalescedInvMLDMatchesRecordKernel: same for the inverse-MLD pass,
// whose runs are clamped to the block size by the frame-indexed gather.
func TestCoalescedInvMLDMatchesRecordKernel(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(542))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	for _, k := range []int{1, 2, 3} {
		a := liftLow(gf2.RandomMLD(rng, n-k, b-k, m-k), k)
		p := perm.MustNew(a, 0).Inverse()
		if !p.Inverse().IsMLD(b, m) {
			t.Fatalf("k=%d: inverse lost MLD membership", k)
		}
		runBothKernels(t, cfg, "MLD^-1", func(s *pdm.System) error { return RunMLDInversePass(context.Background(), s, p, Options{}) })
	}
}

// TestPassEventReportsKernel: the runner reports which scatter kernel a
// pass executed with — a coalescing permutation reports runN, the forced
// per-record path reports "record", and a run-less permutation (one that
// touches address bit 0) degenerates to "record" on its own.
func TestPassEventReportsKernel(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(543))
	k := 3
	p := perm.MustNew(liftLow(gf2.RandomMRC(rng, cfg.LgN()-k, cfg.LgM()-k), k), 0)
	capture := func(sys *pdm.System) string {
		kernel := ""
		opt := Options{}
		opt.Progress = func(ev PassEvent) { kernel = ev.Kernel }
		if err := RunMRCPass(context.Background(), sys, p, opt); err != nil {
			t.Fatal(err)
		}
		return kernel
	}
	if got := capture(newLoaded(t, cfg)); !strings.HasPrefix(got, "run") {
		t.Fatalf("coalescing pass reported kernel %q, want runN", got)
	}
	forceRecordKernel = true
	defer func() { forceRecordKernel = false }()
	if got := capture(newLoaded(t, cfg)); got != "record" {
		t.Fatalf("forced per-record pass reported kernel %q, want record", got)
	}
	forceRecordKernel = false

	// Bit reversal touches bit 0, so no runs exist and the runner picks the
	// per-record kernel without forcing.
	rev := perm.BitReversal(cfg.LgN())
	if rev.ContiguousRunBits() != 0 {
		t.Skip("reversal unexpectedly has runs for this geometry")
	}
	kernel := ""
	opt := Options{}
	opt.Progress = func(ev PassEvent) { kernel = ev.Kernel }
	sys := newLoaded(t, cfg)
	if _, err := runFactored(context.Background(), sys, rev, opt); err != nil {
		t.Fatal(err)
	}
	if kernel == "" {
		t.Fatal("no kernel reported for BMMC run")
	}
}
