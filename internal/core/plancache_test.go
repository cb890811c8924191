package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/factor"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

func randomFactoredPerm(rng *rand.Rand, cfg pdm.Config) perm.BMMC {
	for {
		p := perm.MustNew(gf2.RandomNonsingular(rng, cfg.LgN()), gf2.RandomVec(rng, cfg.LgN()))
		if _, ok := p.OnePassClass(cfg.LgB(), cfg.LgM()); !ok {
			return p
		}
	}
}

// TestPlanCacheHitSkipsRefactorization: the second planning of the same
// permutation returns the identical *factor.Plan value — pointer equality
// proves no GF(2) elimination ran — and the stats record it as a hit.
func TestPlanCacheHitSkipsRefactorization(t *testing.T) {
	eng := NewEngine()
	bp := randomFactoredPerm(rand.New(rand.NewSource(40)), coreConfig)

	pl1, err := eng.Plan(coreConfig, bp)
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := eng.Plan(coreConfig, bp)
	if err != nil {
		t.Fatal(err)
	}
	if pl1.Cached() || !pl2.Cached() {
		t.Errorf("hit flags: first %v, second %v; want false, true", pl1.Cached(), pl2.Cached())
	}
	if pl1.fplan != pl2.fplan {
		t.Error("second planning returned a different plan value: re-factorized despite the cache")
	}
	if pl1.fplan == nil {
		t.Error("factored permutation cached without a plan")
	}
	if s := eng.CacheStats(); s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Errorf("cache stats %+v", s)
	}
}

// TestPlanCacheLRUEviction: with capacity 2, planning a third distinct
// permutation evicts the least recently used one, which then misses again.
func TestPlanCacheLRUEviction(t *testing.T) {
	eng := NewEngine(WithPlanCache(2))
	hit := func(bp perm.BMMC) bool {
		t.Helper()
		pl, err := eng.Plan(coreConfig, bp)
		if err != nil {
			t.Fatal(err)
		}
		return pl.Cached()
	}
	rng := rand.New(rand.NewSource(41))
	a := randomFactoredPerm(rng, coreConfig)
	b := randomFactoredPerm(rng, coreConfig)
	c := randomFactoredPerm(rng, coreConfig)

	hit(a)
	hit(b)
	// Touch a so b becomes the LRU entry, then insert c to evict b.
	if !hit(a) {
		t.Fatal("a missed while resident")
	}
	hit(c)
	if !hit(a) {
		t.Error("a was evicted despite being recently used")
	}
	if hit(b) {
		t.Error("b survived past capacity")
	}
	s := eng.CacheStats()
	if s.Evictions < 1 || s.Size != 2 || s.Capacity != 2 {
		t.Errorf("cache stats %+v", s)
	}
}

// TestPlanCacheDisabled: capacity zero plans every call from scratch and
// never reports a cached plan.
func TestPlanCacheDisabled(t *testing.T) {
	eng := NewEngine(WithPlanCache(0))
	ds, err := CreateDataset(coreConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	bp := randomFactoredPerm(rand.New(rand.NewSource(42)), coreConfig)
	for call := 0; call < 2; call++ {
		rep, err := eng.Permute(context.Background(), ds, bp)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PlanCached {
			t.Fatalf("call %d reported a cached plan with caching disabled", call+1)
		}
	}
	if s := eng.CacheStats(); s.Size != 0 || s.Hits != 0 {
		t.Errorf("disabled cache has state: %+v", s)
	}
}

// TestFusionShrinksMultiPassPlan: at a tight-memory geometry
// (lg(M/B) = 2) the greedy factoring over-splits a known seeded random
// permutation into three passes where two suffice; WithFusion(true) must
// deliver the smaller measured cost through Engine.Permute, with
// the records verifying either way.
func TestFusionShrinksMultiPassPlan(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 2, B: 4, M: 1 << 4}
	// Seed 21 is pinned: it yields a genuinely multi-pass permutation
	// (not one-pass in any class) whose factored plan fuses 3 -> 2 passes.
	rng := rand.New(rand.NewSource(21))
	bp := perm.MustNew(gf2.RandomNonsingular(rng, cfg.LgN()), gf2.RandomVec(rng, cfg.LgN()))
	if _, ok := bp.OnePassClass(cfg.LgB(), cfg.LgM()); ok {
		t.Fatal("pinned permutation degenerated to a one-pass class")
	}

	run := func(fuse bool) *Report {
		ds, err := CreateDataset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		rep, err := NewEngine(WithFusion(fuse)).Permute(context.Background(), ds, bp)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Verify(bp); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	unfused := run(false)
	fused := run(true)
	if fused.Passes >= unfused.Passes || fused.ParallelIOs >= unfused.ParallelIOs {
		t.Errorf("fusion did not shrink the plan: %d->%d passes, %d->%d I/Os",
			unfused.Passes, fused.Passes, unfused.ParallelIOs, fused.ParallelIOs)
	}
	if fused.FusedFrom != unfused.Passes {
		t.Errorf("FusedFrom = %d, want %d", fused.FusedFrom, unfused.Passes)
	}
	if unfused.FusedFrom != 0 {
		t.Errorf("unfused report claims FusedFrom = %d", unfused.FusedFrom)
	}
}

// BenchmarkPlanColdVsCached pins the acceptance claim that a plan-cache
// hit skips re-factorization: planning the same permutation through a warm
// cache must cost near-zero time compared to factorizing from scratch.
func BenchmarkPlanColdVsCached(b *testing.B) {
	cfg := pdm.Config{N: 1 << 20, D: 8, B: 16, M: 1 << 14}
	bp := randomFactoredPerm(rand.New(rand.NewSource(44)), cfg)
	blgB, blgM := cfg.LgB(), cfg.LgM()

	b.Run("cold-factorize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := factor.Factorize(bp, blgB, blgM)
			if err != nil {
				b.Fatal(err)
			}
			factor.Fuse(plan, blgB, blgM)
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		eng := NewEngine()
		if _, err := eng.Plan(cfg, bp); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pl, _ := eng.Plan(cfg, bp); !pl.Cached() {
				b.Fatal("cache miss on warmed cache")
			}
		}
	})
}
