package engine_test

// Differential conformance: seeded-random BMMC permutations, swept across
// machine geometries, executed by every engine path and checked
// record-for-record against a pure in-memory y = Ax XOR c evaluation and
// against the naive record-gather oracle. Example-based tests let
// plausible-but-wrong executors survive; a randomized differential oracle
// does not — any two paths that disagree on any record at any geometry
// fail the suite, including the fused plans and the core plan-cache path.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// conformanceGeometries sweeps N, D, B, and M independently.
var conformanceGeometries = []pdm.Config{
	{N: 1 << 10, D: 2, B: 4, M: 1 << 6},
	{N: 1 << 11, D: 4, B: 8, M: 1 << 7},
	{N: 1 << 12, D: 8, B: 4, M: 1 << 8},
	{N: 1 << 12, D: 2, B: 16, M: 1 << 9},
}

// conformancePerms builds the seeded random workload for one geometry:
// uniform random BMMC permutations, the rank-gamma sweep that drives the
// paper's bounds, and the one-pass families (MLD and its inverses) whose
// plans the fusion layer collapses.
func conformancePerms(seed int64, cfg pdm.Config) []perm.BMMC {
	rng := rand.New(rand.NewSource(seed))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	perms := []perm.BMMC{
		perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n)),
		perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n)),
		perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n)),
		perm.MustNew(gf2.RandomMRC(rng, n, m), gf2.RandomVec(rng, n)),
	}
	maxG := b
	if n-b < maxG {
		maxG = n - b
	}
	for _, g := range []int{0, 1, maxG} {
		perms = append(perms, perm.MustNew(gf2.RandomNonsingularWithGamma(rng, n, b, g), gf2.RandomVec(rng, n)))
	}
	mld := perm.MustNew(gf2.RandomMLD(rng, n, b, m), gf2.RandomVec(rng, n))
	perms = append(perms, mld, mld.Inverse())
	return perms
}

// inMemoryOracle evaluates y = Ax XOR c directly: the canonical record
// loaded at address x must end at address p(x).
func inMemoryOracle(cfg pdm.Config, p perm.BMMC) []pdm.Record {
	out := make([]pdm.Record, cfg.N)
	for x := uint64(0); x < uint64(cfg.N); x++ {
		out[p.Apply(x)] = pdm.MakeRecord(x)
	}
	return out
}

// runEngine loads a fresh system with the canonical records, executes one
// engine path, and returns the final layout in address order.
func runEngine(t *testing.T, cfg pdm.Config, run func(*pdm.System) error) []pdm.Record {
	t.Helper()
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := engine.LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	if err := run(sys); err != nil {
		t.Fatal(err)
	}
	recs, err := sys.DumpRecords(sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func diffLayouts(t *testing.T, want, got []pdm.Record, what string) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: record mismatch at address %d: want key %d, got key %d",
				what, i, want[i].Key, got[i].Key)
		}
	}
}

// TestDifferentialConformance runs every engine path over the full
// geometry x permutation grid and diffs each result against the in-memory
// oracle. The naive record-gather baseline participates as an
// independently implemented second oracle.
func TestDifferentialConformance(t *testing.T) {
	opt := engine.Options{}
	for gi, cfg := range conformanceGeometries {
		perms := conformancePerms(int64(1000+gi), cfg)
		if len(perms) < 8 {
			t.Fatalf("geometry %v: only %d permutations", cfg, len(perms))
		}
		b, m := cfg.LgB(), cfg.LgM()
		for pi, p := range perms {
			want := inMemoryOracle(cfg, p)
			// The six engine entry points. RunPlan is driven by every plan
			// shape the library builds — the dispatch policy (unfused and
			// fused), the verbatim factoring, its fused form, and the
			// ungrouped ablation.
			plan := func(build func() (*factor.Plan, error)) func(*pdm.System) error {
				return func(s *pdm.System) error {
					pl, err := build()
					if err == nil {
						_, err = engine.RunPlan(context.Background(), s, pl, opt)
					}
					return err
				}
			}
			paths := []struct {
				name string
				cond bool
				run  func(*pdm.System) error
			}{
				{"dispatch", true, plan(func() (*factor.Plan, error) {
					_, pl, err := factor.Dispatch(p, b, m, false)
					return pl, err
				})},
				{"dispatch-fused", true, plan(func() (*factor.Plan, error) {
					_, pl, err := factor.Dispatch(p, b, m, true)
					return pl, err
				})},
				{"factored-unfused", true, plan(func() (*factor.Plan, error) {
					return factor.Factorize(p, b, m)
				})},
				{"factored-fused", true, plan(func() (*factor.Plan, error) {
					pl, err := factor.Factorize(p, b, m)
					if err != nil {
						return nil, err
					}
					return factor.Fuse(pl, b, m), nil
				})},
				{"factored-ungrouped", true, plan(func() (*factor.Plan, error) {
					passes, err := factor.FactorizeUngrouped(p, b, m)
					return &factor.Plan{Passes: passes}, err
				})},
				{"merge-sort", true, func(s *pdm.System) error {
					_, err := engine.GeneralPermute(context.Background(), s, p.Apply, opt)
					return err
				}},
				{"naive-oracle", true, func(s *pdm.System) error {
					_, err := engine.NaivePermute(context.Background(), s, p.Apply, opt)
					return err
				}},
				{"mrc-pass", p.IsMRC(m), func(s *pdm.System) error {
					return engine.RunMRCPass(context.Background(), s, p, opt)
				}},
				{"mld-pass", p.IsMLD(b, m), func(s *pdm.System) error {
					return engine.RunMLDPass(context.Background(), s, p, opt)
				}},
				{"inverse-mld-pass", p.Inverse().IsMLD(b, m), func(s *pdm.System) error {
					return engine.RunMLDInversePass(context.Background(), s, p, opt)
				}},
			}
			for _, path := range paths {
				if !path.cond {
					continue
				}
				got := runEngine(t, cfg, path.run)
				diffLayouts(t, want, got,
					fmt.Sprintf("geometry %v perm %d via %s", cfg, pi, path.name))
			}
		}
	}
}

// TestCachedPathConformance covers the core plan-cache path: the same
// permutation executed repeatedly on one Dataset through one fused,
// caching Engine must match the in-memory oracle on every call — in
// particular on the second, when the plan is served from the cache without
// re-factorization.
func TestCachedPathConformance(t *testing.T) {
	for gi, cfg := range conformanceGeometries {
		perms := conformancePerms(int64(2000+gi), cfg)
		for pi, p := range perms {
			eng := core.NewEngine(core.WithFusion(true), core.WithPlanCache(8))
			ds, err := core.CreateDataset(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := inMemoryOracle(cfg, p)
			_, onePass := p.OnePassClass(cfg.LgB(), cfg.LgM())
			for call := 0; call < 2; call++ {
				// Reload the canonical records so each call starts clean.
				if call > 0 {
					recs := make([]pdm.Record, cfg.N)
					for x := range recs {
						recs[x] = pdm.MakeRecord(uint64(x))
					}
					if err := ds.LoadRecords(recs); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := eng.Permute(context.Background(), ds, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ds.Records()
				if err != nil {
					t.Fatal(err)
				}
				diffLayouts(t, want, got,
					fmt.Sprintf("geometry %v perm %d cached call %d", cfg, pi, call+1))
				if !onePass && rep.PlanCached != (call > 0) {
					t.Fatalf("geometry %v perm %d call %d: PlanCached = %v", cfg, pi, call+1, rep.PlanCached)
				}
			}
			ds.Close()
		}
	}
}

// TestBoundsConformance: for random rank-gamma permutations at every
// geometry, the measured cost of the factored driver must sit inside the
// paper's envelope — at least the Theorem 3 lower bound, at most the
// Theorem 21 upper bound — and fusion must never increase the pass count
// while the fused plan still composes to the original permutation.
func TestBoundsConformance(t *testing.T) {
	for gi, cfg := range conformanceGeometries {
		rng := rand.New(rand.NewSource(int64(3000 + gi)))
		n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
		maxG := b
		if n-b < maxG {
			maxG = n - b
		}
		for g := 0; g <= maxG; g++ {
			for trial := 0; trial < 2; trial++ {
				p := perm.MustNew(gf2.RandomNonsingularWithGamma(rng, n, b, g), gf2.RandomVec(rng, n))
				if p.IsIdentity() {
					continue
				}
				plan, err := factor.Factorize(p, b, m)
				if err != nil {
					t.Fatal(err)
				}
				fused := factor.Fuse(plan, b, m)
				if fused.PassCount() > plan.PassCount() {
					t.Errorf("geometry %v rank %d: fusion increased passes %d -> %d",
						cfg, g, plan.PassCount(), fused.PassCount())
				}
				if !fused.Composed(n).Equal(p) {
					t.Errorf("geometry %v rank %d: fused plan composes to a different permutation", cfg, g)
				}
				for _, mode := range []struct {
					name string
					pl   *factor.Plan
				}{{"unfused", plan}, {"fused", fused}} {
					var ios int
					runEngine(t, cfg, func(s *pdm.System) error {
						res, err := engine.RunPlan(context.Background(), s, mode.pl, engine.Options{})
						if err == nil {
							ios = res.ParallelIOs
							err = engine.VerifyBMMC(s, s.Source(), p)
						}
						return err
					})
					lb := bounds.LowerBound(cfg, p.RankGamma(b))
					ub := bounds.UpperBound(cfg, p.RankGamma(b))
					if float64(ios) < lb {
						t.Errorf("geometry %v rank %d %s: measured %d I/Os beats the Theorem 3 lower bound %.0f",
							cfg, g, mode.name, ios, lb)
					}
					if ios > ub {
						t.Errorf("geometry %v rank %d %s: measured %d I/Os exceeds the Theorem 21 upper bound %d",
							cfg, g, mode.name, ios, ub)
					}
				}
			}
		}
	}
}
