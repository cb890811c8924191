// Benchmarks regenerating the paper's evaluation, one per experiment in
// DESIGN.md's index (E2..E11). Each benchmark reports the measured
// parallel-I/O count of the workload as the custom metric "pios", next to
// the paper's bound as "bound-pios", so `go test -bench=.` reproduces the
// quantities the theorems speak about while also timing the simulator.
package bmmc_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	bmmc "repro"
	"repro/internal/bounds"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// benchConfig keeps each iteration around a millisecond so -bench runs stay
// quick while still spanning multiple memoryloads and swap/erase rounds.
var benchConfig = pdm.Config{N: 1 << 14, D: 8, B: 8, M: 1 << 9}

// runPermBench permutes a fresh canonical dataset by p each iteration:
// through the paper's dispatch (unfused), or with force through the
// verbatim Section 5 factoring.
func runPermBench(b *testing.B, cfg pdm.Config, p perm.BMMC, force bool) {
	b.Helper()
	eng := bmmc.NewEngine(bmmc.WithFusion(false))
	ctx := context.Background()
	var ios int
	for i := 0; i < b.N; i++ {
		ds, err := bmmc.CreateDataset(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var rep *bmmc.Report
		if force {
			rep, err = eng.PermuteFactored(ctx, ds, p)
		} else {
			rep, err = eng.Permute(ctx, ds, p)
		}
		if err != nil {
			b.Fatal(err)
		}
		ios = rep.ParallelIOs
		ds.Close()
	}
	b.ReportMetric(float64(ios), "pios")
	b.ReportMetric(float64(bounds.UpperBound(cfg, p.RankGamma(cfg.LgB()))), "bound-pios")
	b.ReportMetric(float64(ios)*float64(cfg.B*cfg.D)/2, "records") // records moved per pass-equivalent
}

// BenchmarkTable1MRC (E2): MRC permutations complete in one pass.
func BenchmarkTable1MRC(b *testing.B) {
	runPermBench(b, benchConfig, perm.GrayCode(benchConfig.LgN()), false)
}

// BenchmarkTable1BPC (E3): a hard BPC permutation (bit reversal).
func BenchmarkTable1BPC(b *testing.B) {
	runPermBench(b, benchConfig, perm.BitReversal(benchConfig.LgN()), false)
}

// BenchmarkTable1BMMC (E4): a random dense BMMC permutation.
func BenchmarkTable1BMMC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := bmmc.RandomPermutation(rng, benchConfig.LgN())
	runPermBench(b, benchConfig, p, false)
}

// BenchmarkTheorem21RankSweep (E5): the tight-bound sweep over rank gamma.
func BenchmarkTheorem21RankSweep(b *testing.B) {
	cfg := benchConfig
	rng := rand.New(rand.NewSource(2))
	for g := 0; g <= cfg.LgB(); g++ {
		p := bmmc.RandomWithRankGamma(rng, cfg.LgN(), cfg.LgB(), g)
		b.Run(fmt.Sprintf("rank=%d", g), func(b *testing.B) {
			runPermBench(b, cfg, p, true)
		})
	}
}

// BenchmarkTheorem15MLD (E6): one-pass MLD execution.
func BenchmarkTheorem15MLD(b *testing.B) {
	cfg := benchConfig
	rng := rand.New(rand.NewSource(3))
	n, lb, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	e := perm.Identity(n).A
	e.SetSubmatrix(m, lb, gf2.RandomMatrix(rng, n-m, m-lb))
	p := perm.MustNew(e, 0)
	if !p.IsMLD(lb, m) {
		b.Fatal("constructed matrix not MLD")
	}
	var ios int
	for i := 0; i < b.N; i++ {
		sys, err := pdm.NewMemSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := engine.LoadSequential(sys); err != nil {
			b.Fatal(err)
		}
		if err := engine.RunMLDPass(context.Background(), sys, p, engine.Options{}); err != nil {
			b.Fatal(err)
		}
		ios = sys.Stats().ParallelIOs()
		sys.Close()
	}
	b.ReportMetric(float64(ios), "pios")
	b.ReportMetric(float64(cfg.PassIOs()), "bound-pios")
}

// BenchmarkCrossover (E7): BMMC algorithm vs merge-sort baseline at low and
// high rank gamma.
func BenchmarkCrossover(b *testing.B) {
	cfg := benchConfig
	rng := rand.New(rand.NewSource(4))
	for _, g := range []int{0, cfg.LgB()} {
		p := bmmc.RandomWithRankGamma(rng, cfg.LgN(), cfg.LgB(), g)
		b.Run(fmt.Sprintf("bmmc/rank=%d", g), func(b *testing.B) {
			runPermBench(b, cfg, p, true)
		})
		b.Run(fmt.Sprintf("sort/rank=%d", g), func(b *testing.B) {
			var ios int
			for i := 0; i < b.N; i++ {
				sys, err := pdm.NewMemSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := engine.LoadSequential(sys); err != nil {
					b.Fatal(err)
				}
				res, err := engine.GeneralPermute(context.Background(), sys, p.Apply, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ios = res.ParallelIOs
				sys.Close()
			}
			b.ReportMetric(float64(ios), "pios")
			b.ReportMetric(float64(bounds.MergeSortIOs(cfg)), "bound-pios")
		})
	}
}

// BenchmarkDetection (E8): Section 6 run-time detection cost.
func BenchmarkDetection(b *testing.B) {
	cfg := benchConfig
	p := perm.BitReversal(cfg.LgN())
	var reads int
	for i := 0; i < b.N; i++ {
		sys, err := pdm.NewMemSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := detect.LoadTargetVector(sys, p.Apply); err != nil {
			b.Fatal(err)
		}
		res, err := detect.Detect(sys, sys.Source())
		if err != nil {
			b.Fatal(err)
		}
		if !res.IsBMMC {
			b.Fatal("detection failed")
		}
		reads = res.ParallelReads()
		sys.Close()
	}
	b.ReportMetric(float64(reads), "pios")
	b.ReportMetric(float64(bounds.DetectionBound(cfg)), "bound-pios")
}

// BenchmarkPotential (E9): cost of evaluating the Section 2 potential
// function over the full initial layout.
func BenchmarkPotential(b *testing.B) {
	cfg := benchConfig
	p := perm.BitReversal(cfg.LgN())
	var phi float64
	for i := 0; i < b.N; i++ {
		phi = bounds.InitialPotential(cfg, p)
	}
	b.ReportMetric(phi, "phi0")
	b.ReportMetric(bounds.InitialPotentialClosedForm(cfg, p), "phi0-closed")
}

// BenchmarkTransposeShapes (E11): transposition across matrix shapes.
func BenchmarkTransposeShapes(b *testing.B) {
	cfg := benchConfig
	n := cfg.LgN()
	for _, lgR := range []int{2, n / 2, n - 2} {
		b.Run(fmt.Sprintf("R=%d,S=%d", 1<<uint(lgR), 1<<uint(n-lgR)), func(b *testing.B) {
			runPermBench(b, cfg, perm.Transpose(lgR, n-lgR), false)
		})
	}
}

// BenchmarkAblationGrouping (E13): grouped (Theorem 17) vs ungrouped
// execution of the same factorization.
func BenchmarkAblationGrouping(b *testing.B) {
	cfg := benchConfig
	rng := rand.New(rand.NewSource(7))
	p := bmmc.RandomWithRankGamma(rng, cfg.LgN(), cfg.LgB(), cfg.LgB())
	b.Run("grouped", func(b *testing.B) {
		runPermBench(b, cfg, p, true)
	})
	b.Run("ungrouped", func(b *testing.B) {
		var ios int
		for i := 0; i < b.N; i++ {
			sys, err := pdm.NewMemSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := engine.LoadSequential(sys); err != nil {
				b.Fatal(err)
			}
			passes, err := factor.FactorizeUngrouped(p, cfg.LgB(), cfg.LgM())
			if err != nil {
				b.Fatal(err)
			}
			res, err := engine.RunPlan(context.Background(), sys, &factor.Plan{Passes: passes}, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ios = res.ParallelIOs
			sys.Close()
		}
		b.ReportMetric(float64(ios), "pios")
	})
}

// BenchmarkInverseMLD (E14): one-pass execution of an MLD inverse via
// independent reads and striped writes.
func BenchmarkInverseMLD(b *testing.B) {
	cfg := benchConfig
	rng := rand.New(rand.NewSource(8))
	n, lb, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	e := perm.Identity(n).A
	e.SetSubmatrix(m, lb, gf2.RandomMatrix(rng, n-m, m-lb))
	mrc := gf2.RandomMRC(rng, n, m)
	p := perm.MustNew(e.Mul(mrc), 0).Inverse()
	var ios int
	for i := 0; i < b.N; i++ {
		sys, err := pdm.NewMemSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := engine.LoadSequential(sys); err != nil {
			b.Fatal(err)
		}
		if err := engine.RunMLDInversePass(context.Background(), sys, p, engine.Options{}); err != nil {
			b.Fatal(err)
		}
		ios = sys.Stats().ParallelIOs()
		sys.Close()
	}
	b.ReportMetric(float64(ios), "pios")
	b.ReportMetric(float64(cfg.PassIOs()), "bound-pios")
}

// BenchmarkFactorizeOnly isolates the host-side factoring cost (the
// "on-line" O(lg^3 N) computation of Section 1).
func BenchmarkFactorizeOnly(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := bmmc.RandomPermutation(rng, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := factor.Factorize(p, 8, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApply isolates a single address-map evaluation y = Ax XOR c.
func BenchmarkApply(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	p := bmmc.RandomPermutation(rng, 48)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = p.Apply(uint64(i))
	}
	_ = sink
}
