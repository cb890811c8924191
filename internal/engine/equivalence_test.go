package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/factor"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Cross-algorithm equivalence: every executor that accepts a permutation
// must produce the identical final layout. These tests pin the engines
// against each other, so a bug would have to be present in two independent
// implementations to slip through.

func finalLayout(t *testing.T, cfg pdm.Config, run func(*pdm.System) error) []pdm.Record {
	t.Helper()
	sys := newLoaded(t, cfg)
	if err := run(sys); err != nil {
		t.Fatal(err)
	}
	recs, err := sys.DumpRecords(sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func sameLayout(t *testing.T, a, b []pdm.Record, what string) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: layouts diverge at address %d (%d vs %d)", what, i, a[i].Key, b[i].Key)
		}
	}
}

// TestMRCPassAgreesWithMLDPass: MRC permutations are MLD, so both one-pass
// executors must accept them and agree.
func TestMRCPassAgreesWithMLDPass(t *testing.T) {
	cfg := pdm.Config{N: 1 << 11, D: 4, B: 8, M: 1 << 7}
	rng := rand.New(rand.NewSource(190))
	for trial := 0; trial < 6; trial++ {
		p := perm.MustNew(gf2.RandomMRC(rng, cfg.LgN(), cfg.LgM()), gf2.RandomVec(rng, cfg.LgN()))
		viaMRC := finalLayout(t, cfg, func(s *pdm.System) error { return RunMRCPass(context.Background(), s, p, DefaultOptions()) })
		viaMLD := finalLayout(t, cfg, func(s *pdm.System) error { return RunMLDPass(context.Background(), s, p, DefaultOptions()) })
		sameLayout(t, viaMRC, viaMLD, "MRC vs MLD executor")
	}
}

// TestBMMCAgreesWithGeneralSort: the factoring algorithm and the sort
// baseline realize the same mapping.
func TestBMMCAgreesWithGeneralSort(t *testing.T) {
	cfg := pdm.Config{N: 1 << 11, D: 4, B: 8, M: 1 << 7}
	rng := rand.New(rand.NewSource(191))
	for trial := 0; trial < 4; trial++ {
		p := perm.MustNew(gf2.RandomNonsingular(rng, cfg.LgN()), gf2.RandomVec(rng, cfg.LgN()))
		viaBMMC := finalLayout(t, cfg, func(s *pdm.System) error {
			_, err := runFactored(context.Background(), s, p, DefaultOptions())
			return err
		})
		viaSort := finalLayout(t, cfg, func(s *pdm.System) error {
			_, err := GeneralPermute(context.Background(), s, p.Apply, DefaultOptions())
			return err
		})
		sameLayout(t, viaBMMC, viaSort, "BMMC vs sort")
	}
}

// TestBMMCAgreesWithNaive: the factoring algorithm and the record-gather
// baseline realize the same mapping.
func TestBMMCAgreesWithNaive(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	rng := rand.New(rand.NewSource(192))
	p := perm.MustNew(gf2.RandomNonsingular(rng, cfg.LgN()), gf2.RandomVec(rng, cfg.LgN()))
	viaBMMC := finalLayout(t, cfg, func(s *pdm.System) error {
		_, err := runFactored(context.Background(), s, p, DefaultOptions())
		return err
	})
	viaNaive := finalLayout(t, cfg, func(s *pdm.System) error {
		_, err := NaivePermute(context.Background(), s, p.Apply, DefaultOptions())
		return err
	})
	sameLayout(t, viaBMMC, viaNaive, "BMMC vs naive")
}

// TestGroupedAgreesWithUngrouped: both executions of the same
// factorization produce the identical layout.
func TestGroupedAgreesWithUngrouped(t *testing.T) {
	cfg := pdm.Config{N: 1 << 11, D: 4, B: 8, M: 1 << 7}
	rng := rand.New(rand.NewSource(193))
	for trial := 0; trial < 4; trial++ {
		p := perm.MustNew(gf2.RandomNonsingular(rng, cfg.LgN()), gf2.RandomVec(rng, cfg.LgN()))
		grouped := finalLayout(t, cfg, func(s *pdm.System) error {
			_, err := runFactored(context.Background(), s, p, DefaultOptions())
			return err
		})
		ungrouped := finalLayout(t, cfg, func(s *pdm.System) error {
			_, err := runUngrouped(context.Background(), s, p, DefaultOptions())
			return err
		})
		sameLayout(t, grouped, ungrouped, "grouped vs ungrouped")
	}
}

// TestFusedAgreesWithUnfused: executing the fused plan produces the
// identical layout to the verbatim Section 5 pass list, across random
// BMMC permutations and the MLD/inverse-MLD families fusion collapses.
func TestFusedAgreesWithUnfused(t *testing.T) {
	cfg := pdm.Config{N: 1 << 11, D: 4, B: 8, M: 1 << 7}
	rng := rand.New(rand.NewSource(195))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	perms := []perm.BMMC{
		perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n)),
		perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n)),
		randomMLD(rng, n, b, m),
		randomMLD(rng, n, b, m).Inverse(),
	}
	for i, p := range perms {
		unfused := finalLayout(t, cfg, func(s *pdm.System) error {
			_, err := runFactored(context.Background(), s, p, DefaultOptions())
			return err
		})
		fused := finalLayout(t, cfg, func(s *pdm.System) error {
			_, err := runFused(context.Background(), s, p, DefaultOptions())
			return err
		})
		sameLayout(t, unfused, fused, fmt.Sprintf("unfused vs fused (perm %d)", i))
	}
}

// traceRun executes the (possibly fused) plan for p under the given
// execution mode with a trace attached and returns the layout, the stats,
// and the trace.
func traceRun(t *testing.T, cfg pdm.Config, plan *factor.Plan, opt Options, concurrent bool) ([]pdm.Record, pdm.Stats, *pdm.Trace) {
	t.Helper()
	sys := newLoaded(t, cfg)
	sys.SetConcurrent(concurrent)
	tr := new(pdm.Trace).Attach(sys)
	if _, err := RunPlan(context.Background(), sys, plan, opt); err != nil {
		t.Fatal(err)
	}
	recs, err := sys.DumpRecords(sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	return recs, sys.Stats(), tr
}

// sortedTrace renders a trace as its sorted operation multiset. Pipelined
// prefetch may reorder a read of load k+1 ahead of the writes of load k,
// so equivalence is over the multiset of operations, not their sequence;
// sequence numbers are stripped before sorting.
func sortedTrace(tr *pdm.Trace) string {
	lines := make([]string, len(tr.Entries))
	for i, e := range tr.Entries {
		e.Seq = 0
		lines[i] = e.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestConcurrentTraceInvariant: with the pipeline and concurrent
// dispatch both enabled (the configuration the -race CI job stresses),
// every counted parallel I/O still touches at most one block per disk, and
// the stats and operation multiset are byte-identical to the fully
// sequential run — for both the fused and the unfused plan of a
// multi-pass permutation, and for a plan reused the way the core plan
// cache reuses it.
func TestConcurrentTraceInvariant(t *testing.T) {
	cfg := pdm.Config{N: 1 << 11, D: 4, B: 8, M: 1 << 7}
	rng := rand.New(rand.NewSource(196))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	perms := []perm.BMMC{
		perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n)),
		randomMLD(rng, n, b, m),
		randomMLD(rng, n, b, m).Inverse(),
	}
	for i, p := range perms {
		plan, err := factor.Factorize(p, b, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			plan *factor.Plan
		}{{"unfused", plan}, {"fused", factor.Fuse(plan, b, m)}} {
			seqRecs, seqStats, seqTr := traceRun(t, cfg, mode.plan, Options{Pipeline: false}, false)
			conRecs, conStats, conTr := traceRun(t, cfg, mode.plan, Options{Pipeline: true}, true)

			for _, e := range conTr.Entries {
				seen := make(map[int]bool, len(e.IOs))
				for _, io := range e.IOs {
					if seen[io.Disk] {
						t.Fatalf("perm %d %s: operation %d touches disk %d twice", i, mode.name, e.Seq, io.Disk)
					}
					seen[io.Disk] = true
				}
				if len(e.IOs) > cfg.D {
					t.Fatalf("perm %d %s: operation %d moves %d blocks, more than D=%d",
						i, mode.name, e.Seq, len(e.IOs), cfg.D)
				}
			}
			sameLayout(t, seqRecs, conRecs, fmt.Sprintf("perm %d %s sequential vs concurrent", i, mode.name))
			if !reflect.DeepEqual(seqStats, conStats) {
				t.Fatalf("perm %d %s: stats diverge:\nsequential: %+v\nconcurrent: %+v", i, mode.name, seqStats, conStats)
			}
			if s, c := sortedTrace(seqTr), sortedTrace(conTr); s != c {
				t.Fatalf("perm %d %s: operation multisets diverge", i, mode.name)
			}

			// Reusing the identical plan value — exactly what a plan-cache
			// hit does — replays the identical operation multiset.
			reRecs, reStats, reTr := traceRun(t, cfg, mode.plan, Options{Pipeline: true}, true)
			sameLayout(t, conRecs, reRecs, fmt.Sprintf("perm %d %s cached replay", i, mode.name))
			if !reflect.DeepEqual(conStats, reStats) || sortedTrace(conTr) != sortedTrace(reTr) {
				t.Fatalf("perm %d %s: cached plan replay diverged", i, mode.name)
			}
		}
	}
}

// TestConcurrentDispatchAgrees: the engines produce identical layouts with
// concurrent dispatch enabled.
func TestConcurrentDispatchAgrees(t *testing.T) {
	cfg := pdm.Config{N: 1 << 11, D: 8, B: 4, M: 1 << 7}
	rng := rand.New(rand.NewSource(194))
	p := perm.MustNew(gf2.RandomNonsingular(rng, cfg.LgN()), gf2.RandomVec(rng, cfg.LgN()))
	seq := finalLayout(t, cfg, func(s *pdm.System) error {
		_, err := runFactored(context.Background(), s, p, DefaultOptions())
		return err
	})
	con := finalLayout(t, cfg, func(s *pdm.System) error {
		s.SetConcurrent(true)
		_, err := runFactored(context.Background(), s, p, DefaultOptions())
		return err
	})
	sameLayout(t, seq, con, "sequential vs concurrent dispatch")
}
