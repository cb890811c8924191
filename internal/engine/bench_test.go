package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/factor"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Benchmarks comparing the pass runner's execution modes on a file-backed
// system, where real storage latency exists to overlap. The parallel-I/O
// counts are identical across modes (asserted by TestPipelinedFileBacked*);
// these measure what the pipeline buys in wall-clock time. On a multi-core
// machine with the prefetch overlapping encode/decode and scatter work,
// pipelined mode wins; on a single core it degrades gracefully to roughly
// sequential speed.
var benchCfg = pdm.Config{N: 1 << 18, D: 8, B: 16, M: 1 << 12}

func benchmarkFileBMMC(b *testing.B, opt Options, concurrent bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	p := perm.MustNew(
		gf2.RandomNonsingularWithGamma(rng, benchCfg.LgN(), benchCfg.LgB(), benchCfg.LgB()),
		gf2.RandomVec(rng, benchCfg.LgN()))
	sys, err := pdm.NewSystem(benchCfg, pdm.FileBackend(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	sys.SetConcurrent(concurrent)
	if err := LoadSequential(sys); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchCfg.N) * pdm.RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runFactored(context.Background(), sys, p, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.ParallelIOs), "pios")
		}
	}
}

func BenchmarkFileBMMCSequential(b *testing.B) {
	benchmarkFileBMMC(b, Options{sequential: true}, false)
}

func BenchmarkFileBMMCPipelined(b *testing.B) {
	benchmarkFileBMMC(b, Options{}, false)
}

func BenchmarkFileBMMCPipelinedConcurrentIO(b *testing.B) {
	benchmarkFileBMMC(b, Options{}, true)
}

// BenchmarkMemBMMCSequential/Pipelined isolate the runner overhead with no
// real I/O at all (RAM-backed disks).
func benchmarkMemBMMC(b *testing.B, opt Options) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	p := perm.MustNew(
		gf2.RandomNonsingularWithGamma(rng, benchCfg.LgN(), benchCfg.LgB(), benchCfg.LgB()),
		gf2.RandomVec(rng, benchCfg.LgN()))
	sys, err := pdm.NewMemSystem(benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := LoadSequential(sys); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchCfg.N) * pdm.RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runFactored(context.Background(), sys, p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemBMMCSequential(b *testing.B) {
	benchmarkMemBMMC(b, Options{sequential: true})
}

func BenchmarkMemBMMCPipelined(b *testing.B) {
	benchmarkMemBMMC(b, Options{})
}

// BenchmarkScatterKernel isolates the scatter inner loops on an MRC pass
// whose permutation fixes the low lg B address bits, so the coalesced
// kernel moves one block-sized run per Apply while the forced variant
// walks record by record. RAM-backed and sequential, so the scatter loop
// dominates the measurement.
func benchmarkScatterKernel(b *testing.B, force bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(43))
	cfg := benchCfg
	k := cfg.LgB()
	a := gf2.Identity(cfg.LgN())
	a.SetSubmatrix(k, k, gf2.RandomMRC(rng, cfg.LgN()-k, cfg.LgM()-k))
	p := perm.MustNew(a, 0)
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := LoadSequential(sys); err != nil {
		b.Fatal(err)
	}
	forceRecordKernel = force
	defer func() { forceRecordKernel = false }()
	opt := Options{sequential: true}
	b.SetBytes(int64(cfg.N) * pdm.RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunMRCPass(context.Background(), sys, p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScatterKernelCoalesced(b *testing.B) { benchmarkScatterKernel(b, false) }

func BenchmarkScatterKernelRecord(b *testing.B) { benchmarkScatterKernel(b, true) }

// BenchmarkLibGeometry runs one seeded rank-6 BMMC at the lib-file bench
// workload's geometry: N=2^22, D=8, B=64, M=2^16, file backend, two
// passes and 32768 parallel I/Os per run. The plan is made once, by
// factor.Dispatch with fusion, as bmmc.Engine plans. The sync variants
// call Sync after every run and time it, as lib-file times a job: a run's
// second pass rewrites the portion the last Sync covered, so its writes
// start that portion's writeback and the next Sync waits for less. The
// pass after a Sync is bound by its write stage, the pass without one by
// its scatter.
func BenchmarkLibGeometry(b *testing.B) {
	for _, mode := range []struct {
		name string
		opt  Options
	}{{"pipelined", Options{}}, {"sequential", Options{sequential: true}}} {
		for _, sync := range []bool{false, true} {
			name := mode.name + "/nosync"
			if sync {
				name = mode.name + "/sync"
			}
			b.Run(name, func(b *testing.B) { benchmarkLibGeometry(b, mode.opt, sync) })
		}
	}
}

func benchmarkLibGeometry(b *testing.B, opt Options, sync bool) {
	cfg := pdm.Config{N: 1 << 22, D: 8, B: 64, M: 1 << 16}
	rng := rand.New(rand.NewSource(1))
	p := perm.MustNew(gf2.RandomNonsingularWithGamma(rng, cfg.LgN(), cfg.LgB(), 6), gf2.RandomVec(rng, cfg.LgN()))
	_, plan, err := factor.Dispatch(p, cfg.LgB(), cfg.LgM(), true)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := pdm.NewSystem(cfg, pdm.FileBackend(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := LoadSequential(sys); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(cfg.N) * pdm.RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunPlan(context.Background(), sys, plan, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.ParallelIOs), "pios")
		}
		if sync {
			if err := sys.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
