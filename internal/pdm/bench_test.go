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
	if err := sys.LoadRecords(recs); err != nil {
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
		if err := sys.ReadStripe(stripe, 0, buf); err != nil {
			b.Fatal(err)
		}
		if err := sys.WriteStripe(stripe, 0, buf); err != nil {
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
		if err := sys.ParallelReadGroup([][]BlockIO{ios}, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryloadGroup moves one memoryload of lib-file's geometry
// (D=8, B=64, M=2^16) per iteration: one striped read group of M/BD waves
// and one striped write group, each a run of M/D blocks per disk. mem and
// file read from block views, one copy per block; staged is RAM behind a
// disarmed FlakyBackend, which offers no views, so its reads go through
// the staging slab. Every iteration commits, and file then syncs outside
// the timer, so the next write group lands on pages an msync cleaned, as
// lib-file's second pass does. Unlike that pass, it lands in the portion
// the last Sync left out, so it starts no writeback ahead of the next one.
func BenchmarkMemoryloadGroup(b *testing.B) {
	cfg := Config{N: 1 << 17, D: 8, B: 64, M: 1 << 16}
	loads := cfg.N / cfg.M
	groups := make([][][]BlockIO, loads)
	for ml := range groups {
		for w := 0; w < cfg.FramesPerDisk(); w++ {
			ios := make([]BlockIO, cfg.D)
			for d := range ios {
				ios[d] = BlockIO{Disk: d, Block: ml*cfg.FramesPerDisk() + w, Frame: w*cfg.D + d}
			}
			groups[ml] = append(groups[ml], ios)
		}
	}
	for _, storage := range []string{"mem", "file", "staged"} {
		b.Run(storage, func(b *testing.B) {
			var be Backend
			switch storage {
			case "mem":
				be = MemBackend()
			case "file":
				be = FileBackend(b.TempDir())
			case "staged":
				flaky := NewFlakyBackend(MemBackend(), FlakyOptions{})
				flaky.Disarm()
				be = flaky
			}
			sys, err := NewSystem(cfg, be)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if err := sys.ReplaceRecords(func(off int, chunk []Record) error {
				for i := range chunk {
					chunk[i] = MakeRecord(uint64(off + i))
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			buf := sys.AcquireBuffer()
			b.SetBytes(2 * int64(cfg.M) * RecordBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				group := groups[i%loads]
				if err := sys.ParallelReadGroup(group, buf); err != nil {
					b.Fatal(err)
				}
				if err := sys.ParallelWriteGroup(group, buf); err != nil {
					b.Fatal(err)
				}
				sys.Commit()
				b.StopTimer()
				if err := sys.Sync(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
