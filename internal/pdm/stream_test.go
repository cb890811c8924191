package pdm

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
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
		n, err := s.LoadFrom(context.Background(), PortionA, bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%s: LoadFrom: %v", name, err)
		}
		if n != int64(len(wire)) {
			t.Fatalf("%s: LoadFrom consumed %d bytes, want %d", name, n, len(wire))
		}
		// The streamed load must be indistinguishable from LoadRecords.
		got, err := s.DumpRecords(PortionA)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d diverges after LoadFrom", name, i)
			}
		}
		var out bytes.Buffer
		n, err = s.DumpTo(context.Background(), PortionA, &out)
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
	if err := s.LoadRecords(PortionA, before); err != nil {
		t.Fatal(err)
	}
	short := make([]byte, cfg.N*RecordBytes/2+3)
	if _, err := s.LoadFrom(context.Background(), PortionA, bytes.NewReader(short)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short LoadFrom error = %v, want io.ErrUnexpectedEOF", err)
	}
	after, err := s.DumpRecords(PortionA)
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
	if err := s.LoadRecords(PortionA, before); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wire := make([]byte, cfg.N*RecordBytes)
	if _, err := s.LoadFrom(ctx, PortionA, bytes.NewReader(wire)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled LoadFrom error = %v, want context.Canceled", err)
	}
	after, _ := s.DumpRecords(PortionA)
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
	if err := s.LoadRecords(PortionA, sequentialRecords(cfg.N)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DumpTo(ctx, PortionA, io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled DumpTo error = %v, want context.Canceled", err)
	}
}
