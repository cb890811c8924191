package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Benchmarks comparing the pass runner's execution modes on a file-backed
// system, where real storage latency exists to overlap. The parallel-I/O
// counts are identical across modes (asserted by TestPipelinedFileBacked*);
// these measure what the pipeline and the scatter worker pool buy in
// wall-clock time. On a multi-core machine with the prefetch overlapping
// encode/decode and scatter work, pipelined mode wins; on a single core it
// degrades gracefully to roughly sequential speed.
var benchCfg = pdm.Config{N: 1 << 18, D: 8, B: 16, M: 1 << 12}

func benchmarkFileBMMC(b *testing.B, opt Options, concurrent bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	p := perm.MustNew(
		gf2.RandomNonsingularWithGamma(rng, benchCfg.LgN(), benchCfg.LgB(), benchCfg.LgB()),
		gf2.RandomVec(rng, benchCfg.LgN()))
	sys, err := pdm.NewSystem(benchCfg, pdm.FileDiskFactory(b.TempDir()))
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
	benchmarkFileBMMC(b, Options{Pipeline: false, Workers: 1}, false)
}

func BenchmarkFileBMMCPipelined(b *testing.B) {
	benchmarkFileBMMC(b, DefaultOptions(), false)
}

func BenchmarkFileBMMCPipelinedConcurrentIO(b *testing.B) {
	benchmarkFileBMMC(b, DefaultOptions(), true)
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
	benchmarkMemBMMC(b, Options{Pipeline: false, Workers: 1})
}

func BenchmarkMemBMMCPipelined(b *testing.B) {
	benchmarkMemBMMC(b, DefaultOptions())
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
	opt := Options{Pipeline: false, Workers: 1}
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
