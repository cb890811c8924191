package pdm

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// TestLoadFromDumpToRoundTrip: the streaming data plane round-trips a wire
// stream through the backend and back, byte-identical, on both the memory
// and the file backends.
func TestLoadFromDumpToRoundTrip(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(520))
	recs := randomRecords(rng, cfg.N)
	wire := make([]byte, cfg.N*RecordBytes)
	for i, r := range recs {
		r.Encode(wire[i*RecordBytes:])
	}
	for name, be := range map[string]Backend{
		"mem":  MemBackend(),
		"file": FileBackend(t.TempDir()),
	} {
		s, err := NewSystem(cfg, be)
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.LoadFrom(context.Background(), bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%s: LoadFrom: %v", name, err)
		}
		if n != int64(len(wire)) {
			t.Fatalf("%s: LoadFrom consumed %d bytes, want %d", name, n, len(wire))
		}
		// The streamed load must be indistinguishable from LoadRecords.
		got, err := s.DumpRecords()
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d diverges after LoadFrom", name, i)
			}
		}
		var out bytes.Buffer
		n, err = s.DumpTo(context.Background(), &out)
		if err != nil {
			t.Fatalf("%s: DumpTo: %v", name, err)
		}
		if n != int64(len(wire)) || !bytes.Equal(out.Bytes(), wire) {
			t.Fatalf("%s: DumpTo returned %d bytes, diverging from the input stream", name, n)
		}
		if s.Stats().ParallelIOs() != 0 {
			t.Errorf("%s: streaming counted as parallel I/O: %v", name, s.Stats())
		}
		s.Close()
	}
}

// TestLoadFromShortStream: fewer than N records is io.ErrUnexpectedEOF and
// the stored records are untouched — nothing is committed before the whole
// stream has arrived.
func TestLoadFromShortStream(t *testing.T) {
	cfg := testConfig()
	s, err := NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := sequentialRecords(cfg.N)
	if err := s.LoadRecords(before); err != nil {
		t.Fatal(err)
	}
	short := make([]byte, cfg.N*RecordBytes/2+3)
	if _, err := s.LoadFrom(context.Background(), bytes.NewReader(short)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short LoadFrom error = %v, want io.ErrUnexpectedEOF", err)
	}
	after, err := s.DumpRecords()
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("short LoadFrom mutated record %d", i)
		}
	}
}

// TestLoadFromCanceled: a canceled context aborts with the stored records
// unchanged and a context error in the chain.
func TestLoadFromCanceled(t *testing.T) {
	cfg := testConfig()
	s, err := NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := sequentialRecords(cfg.N)
	if err := s.LoadRecords(before); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wire := make([]byte, cfg.N*RecordBytes)
	if _, err := s.LoadFrom(ctx, bytes.NewReader(wire)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled LoadFrom error = %v, want context.Canceled", err)
	}
	after, _ := s.DumpRecords()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("canceled LoadFrom mutated record %d", i)
		}
	}
}

// TestDumpToCanceled: cancellation aborts a dump between chunks with a
// context error.
func TestDumpToCanceled(t *testing.T) {
	cfg := testConfig()
	s, err := NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.LoadRecords(sequentialRecords(cfg.N)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DumpTo(ctx, io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled DumpTo error = %v, want context.Canceled", err)
	}
}

// allocated returns the bytes fn allocates on the heap, measured after two
// collections have emptied every pool, so a pooled slab cannot hide an
// allocation.
func allocated(fn func()) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadFromHoldsFewChunks: an upload of 2^20 records onto file storage
// allocates a few chunks, not an N-record slab, and so does the dump.
func TestLoadFromHoldsFewChunks(t *testing.T) {
	cfg := Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}
	s, err := NewSystem(cfg, FileBackend(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wire := append([]byte(nil), RecordsToBytes(sequentialRecords(cfg.N))...)
	limit := uint64(4 * streamChunkRecords * RecordBytes)
	var err2 error
	if got := allocated(func() { _, err2 = s.LoadFrom(context.Background(), bytes.NewReader(wire)) }); err2 != nil {
		t.Fatal(err2)
	} else if got > limit {
		t.Errorf("LoadFrom of %d records allocated %d bytes, want at most four chunks (%d)", cfg.N, got, limit)
	}
	var out bytes.Buffer
	out.Grow(len(wire))
	if got := allocated(func() { _, err2 = s.DumpTo(context.Background(), &out) }); err2 != nil {
		t.Fatal(err2)
	} else if got > limit {
		t.Errorf("DumpTo of %d records allocated %d bytes, want at most four chunks (%d)", cfg.N, got, limit)
	}
	if !bytes.Equal(out.Bytes(), wire) {
		t.Fatal("DumpTo diverges from the loaded stream")
	}
}

// TestChaosLoadFromWriteFault: a storage fault in the middle of an upload
// — after whole chunks have landed in the target portion — fails the load
// without touching the committed records, and the System stays usable for
// the next load and for a pass over it.
func TestChaosLoadFromWriteFault(t *testing.T) {
	cfg := Config{N: 1 << 16, D: 4, B: 8, M: 1 << 7} // four chunks
	chunkXfers := streamChunkRecords / cfg.B
	fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 2*chunkXfers + chunkXfers/2, Mode: FaultWriteOnly})
	fb.Disarm()
	s, err := NewSystem(cfg, fb)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wire := func(seed int64) []byte {
		return append([]byte(nil), RecordsToBytes(randomRecords(rand.New(rand.NewSource(seed)), cfg.N))...)
	}
	dump := func() []byte {
		t.Helper()
		var out bytes.Buffer
		if _, err := s.DumpTo(context.Background(), &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	before, next := wire(1), wire(2)
	if _, err := s.LoadFrom(context.Background(), bytes.NewReader(before)); err != nil {
		t.Fatal(err)
	}

	fb.Arm()
	_, err = s.LoadFrom(context.Background(), bytes.NewReader(next))
	fb.Disarm()
	if !errors.Is(err, ErrInjectedFault) || errors.Is(err, ErrInput) {
		t.Fatalf("faulted LoadFrom error = %v, want a storage fault, not an input error", err)
	}
	if ops := fb.Ops(); ops <= 2*chunkXfers {
		t.Fatalf("fault landed after %d transfers, want mid-upload (after %d)", ops, 2*chunkXfers)
	}
	if !bytes.Equal(dump(), before) {
		t.Fatal("faulted LoadFrom changed the committed records")
	}

	// The next load commits, and a pass reads what it committed.
	if _, err := s.LoadFrom(context.Background(), bytes.NewReader(next)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump(), next) {
		t.Fatal("LoadFrom after a fault did not commit its records")
	}
	buf := s.AcquireBuffer()
	for stripe := 0; stripe < cfg.Stripes(); stripe++ {
		if err := s.ReadStripe(stripe, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteStripe(stripe, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()
	if !bytes.Equal(dump(), next) {
		t.Fatal("a copy pass after the faulted load diverged")
	}
	if got := s.Stats().ParallelIOs(); got != cfg.PassIOs() {
		t.Fatalf("copy pass counted %d parallel I/Os, want %d", got, cfg.PassIOs())
	}
}
