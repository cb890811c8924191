package bmmc_test

import (
	"context"
	"math/rand"
	"testing"

	bmmc "repro"
)

var apiConfig = bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}

// newAPIDataset returns a canonical dataset on apiConfig, closed at
// cleanup.
func newAPIDataset(t *testing.T, opts ...bmmc.Option) *bmmc.Dataset {
	t.Helper()
	ds, err := bmmc.CreateDataset(apiConfig, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func TestEngineLifecycle(t *testing.T) {
	ds := newAPIDataset(t)
	rev := bmmc.BitReversal(apiConfig.LgN())
	rep, err := bmmc.NewEngine().Permute(context.Background(), ds, rev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Verify(rev); err != nil {
		t.Fatal(err)
	}
	if rep.ParallelIOs <= 0 || rep.ParallelIOs > rep.UpperBound {
		t.Errorf("I/Os %d outside (0, UB=%d]", rep.ParallelIOs, rep.UpperBound)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestEngineComposesAcrossCalls(t *testing.T) {
	ds := newAPIDataset(t)
	eng := bmmc.NewEngine()
	ctx := context.Background()
	n := apiConfig.LgN()
	g := bmmc.GrayCode(n)
	r := bmmc.RotateBits(n, 3)
	if _, err := eng.Permute(ctx, ds, g); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Permute(ctx, ds, r); err != nil {
		t.Fatal(err)
	}
	if err := ds.Verify(r.Compose(g)); err != nil {
		t.Fatal(err)
	}
}

func TestEngineGrayCodeOnePass(t *testing.T) {
	ds := newAPIDataset(t)
	rep, err := bmmc.NewEngine().Permute(context.Background(), ds, bmmc.GrayCode(apiConfig.LgN()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != bmmc.ClassMRC || rep.Passes != 1 {
		t.Errorf("Gray code dispatched as %v in %d passes", rep.Class, rep.Passes)
	}
	if rep.ParallelIOs != apiConfig.PassIOs() {
		t.Errorf("Gray code cost %d, want %d", rep.ParallelIOs, apiConfig.PassIOs())
	}
}

func TestPermuteGeneral(t *testing.T) {
	ds := newAPIDataset(t)
	rng := rand.New(rand.NewSource(7))
	target := rng.Perm(apiConfig.N)
	targetOf := func(x uint64) uint64 { return uint64(target[x]) }
	rep, err := bmmc.NewEngine().PermuteGeneral(context.Background(), ds, targetOf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.VerifyMapping(targetOf); err != nil {
		t.Fatal(err)
	}
	if rep.Passes < 2 || rep.ParallelIOs != ds.Stats().ParallelIOs() {
		t.Errorf("sort report %d passes / %d I/Os, dataset measured %d", rep.Passes, rep.ParallelIOs, ds.Stats().ParallelIOs())
	}
}

func TestDetectTargetsAPI(t *testing.T) {
	want := bmmc.Transpose(5, 7)
	res, err := bmmc.DetectTargets(apiConfig, want.Apply)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsBMMC || !res.Perm.Equal(want) {
		t.Fatal("transpose not detected")
	}
	if res.ParallelReads() > bmmc.DetectionBoundReads(apiConfig) {
		t.Errorf("detection cost %d exceeds bound %d", res.ParallelReads(), bmmc.DetectionBoundReads(apiConfig))
	}
}

func TestRandomWithRankGamma(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, b := apiConfig.LgN(), apiConfig.LgB()
	for g := 0; g <= b; g++ {
		p := bmmc.RandomWithRankGamma(rng, n, b, g)
		if p.RankGamma(b) != g {
			t.Fatalf("rank gamma %d, want %d", p.RankGamma(b), g)
		}
	}
}

func TestBoundHelpers(t *testing.T) {
	if bmmc.LowerBoundIOs(apiConfig, 0) <= 0 {
		t.Error("lower bound not positive")
	}
	if bmmc.UpperBoundIOs(apiConfig, 3) <= 0 {
		t.Error("upper bound not positive")
	}
	if bmmc.RefinedLowerBoundIOs(apiConfig, 3) <= 0 {
		t.Error("refined bound not positive")
	}
	if bmmc.SortBoundIOs(apiConfig) <= 0 {
		t.Error("sort bound not positive")
	}
	// Identity is free via the dispatch policy.
	ds := newAPIDataset(t)
	rep, err := bmmc.NewEngine().Permute(context.Background(), ds, bmmc.Identity(apiConfig.LgN()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParallelIOs != 0 {
		t.Errorf("identity cost %d I/Os", rep.ParallelIOs)
	}
}

func TestPermuteFactoredForcesFullAlgorithm(t *testing.T) {
	ds := newAPIDataset(t)
	g := bmmc.GrayCode(apiConfig.LgN())
	rep, err := bmmc.NewEngine().PermuteFactored(context.Background(), ds, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Verify(g); err != nil {
		t.Fatal(err)
	}
	if rep.Passes != 1 { // Gray code is MRC: even the factored path is 1 pass
		t.Errorf("factored Gray code used %d passes", rep.Passes)
	}
}

// TestPlanLayerAPI exercises the public planning surface: the plan cache
// serves the second Permute of the same permutation without
// re-factorizing, and the fusion option is accepted at construction.
func TestPlanLayerAPI(t *testing.T) {
	ds := newAPIDataset(t)
	eng := bmmc.NewEngine(bmmc.WithFusion(true))
	ctx := context.Background()
	n := apiConfig.LgN()
	rev := bmmc.BitReversal(n)

	first, err := eng.Permute(ctx, ds, rev)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Permute(ctx, ds, rev)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCached || !second.PlanCached {
		t.Errorf("PlanCached flags: first %v, second %v", first.PlanCached, second.PlanCached)
	}
	if first.Passes != second.Passes || first.ParallelIOs != second.ParallelIOs {
		t.Errorf("cached run cost diverged: %v vs %v", first, second)
	}
	var stats bmmc.CacheStats = eng.CacheStats()
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("cache stats %+v", stats)
	}
	// Two reversals cancel; the records are back in the identity layout.
	if err := ds.Verify(bmmc.Identity(n)); err != nil {
		t.Fatal(err)
	}
}
