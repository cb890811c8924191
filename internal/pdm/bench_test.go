package pdm

import "testing"

func benchSystem(b *testing.B, be Backend) *System {
	b.Helper()
	cfg := Config{N: 1 << 14, D: 8, B: 16, M: 1 << 10}
	sys, err := NewSystem(cfg, be)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	recs := make([]Record, cfg.N)
	for i := range recs {
		recs[i] = MakeRecord(uint64(i))
	}
	if err := sys.LoadRecords(PortionA, recs); err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchStripeSweep(b *testing.B, sys *System) {
	cfg := sys.Config()
	buf := sys.AcquireBuffer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stripe := i % cfg.Stripes()
		if err := sys.ReadStripe(PortionA, stripe, 0, buf); err != nil {
			b.Fatal(err)
		}
		if err := sys.WriteStripe(PortionB, stripe, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStripeIOMem(b *testing.B) {
	benchStripeSweep(b, benchSystem(b, MemBackend()))
}

func BenchmarkStripeIOMemConcurrent(b *testing.B) {
	sys := benchSystem(b, MemBackend())
	sys.SetConcurrent(true)
	benchStripeSweep(b, sys)
}

func BenchmarkStripeIOFile(b *testing.B) {
	benchStripeSweep(b, benchSystem(b, FileBackend(b.TempDir())))
}

func BenchmarkStripeIOFileConcurrent(b *testing.B) {
	sys := benchSystem(b, FileBackend(b.TempDir()))
	sys.SetConcurrent(true)
	benchStripeSweep(b, sys)
}

func BenchmarkIndependentRead(b *testing.B) {
	sys := benchSystem(b, MemBackend())
	cfg := sys.Config()
	ios := make([]BlockIO, cfg.D)
	buf := sys.AcquireBuffer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range ios {
			ios[d] = BlockIO{Disk: d, Block: (i + d*7) % cfg.BlocksPerDisk(), Frame: d}
		}
		if err := sys.ParallelReadGroup(PortionA, [][]BlockIO{ios}, buf); err != nil {
			b.Fatal(err)
		}
	}
}
