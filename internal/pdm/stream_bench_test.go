package pdm

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// Benchmarks of the streaming data plane: LoadFrom and DumpTo, the bulk
// route under Dataset.Load/Dump and bmmcd streams, each walking the
// records one chunk at a time through a pooled arena, one backend batch
// per chunk.

func benchWire(cfg Config) []byte {
	recs := make([]Record, cfg.N)
	for i := range recs {
		recs[i] = MakeRecord(uint64(i))
	}
	return append([]byte(nil), RecordsToBytes(recs)...)
}

func BenchmarkLoadFromMem(b *testing.B) {
	sys := benchSystem(b, MemBackend())
	wire := benchWire(sys.Config())
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.LoadFrom(context.Background(), bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadFromFile(b *testing.B) {
	sys := benchSystem(b, FileBackend(b.TempDir()))
	wire := benchWire(sys.Config())
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.LoadFrom(context.Background(), bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDumpToMem(b *testing.B) {
	sys := benchSystem(b, MemBackend())
	b.SetBytes(int64(sys.Config().N) * RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DumpTo(context.Background(), PortionA, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDumpToFile(b *testing.B) {
	sys := benchSystem(b, FileBackend(b.TempDir()))
	b.SetBytes(int64(sys.Config().N) * RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DumpTo(context.Background(), PortionA, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordsToBytes measures the slab view (or the portable copy on
// big-endian builds) against the per-record encode loop it replaces.
func BenchmarkRecordsToBytes(b *testing.B) {
	recs := make([]Record, 1<<14)
	for i := range recs {
		recs[i] = MakeRecord(uint64(i))
	}
	b.SetBytes(int64(len(recs)) * RecordBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := RecordsToBytes(recs); len(got) != len(recs)*RecordBytes {
			b.Fatal("bad slab length")
		}
	}
}

func BenchmarkEncodeRecords(b *testing.B) {
	recs := make([]Record, 1<<14)
	for i := range recs {
		recs[i] = MakeRecord(uint64(i))
	}
	dst := make([]byte, len(recs)*RecordBytes)
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeRecords(dst, recs)
	}
}
