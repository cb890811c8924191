package pdm

import (
	"sync"
	"testing"
)

// TestInstrumentBackendSamples checks the wrapper times every call with
// exact block and run accounting and keeps the inner backend's block views.
func TestInstrumentBackendSamples(t *testing.T) {
	var mu sync.Mutex
	var samples []OpSample
	be := InstrumentBackend(MemBackend(), func(s OpSample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	})

	if _, ok := be.(BlockViewer); !ok {
		t.Fatal("instrumented mem backend lost BlockViewer")
	}

	const bs = 4
	if err := be.Open(2, 8, bs); err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	buf := make([]Record, 2*bs)
	if err := be.WriteBlocks([]RangeXfer{
		{Disk: 0, Block: 0, Data: buf[:bs]},
		{Disk: 1, Block: 3, Data: buf[bs:]},
	}); err != nil {
		t.Fatal(err)
	}
	rbuf := make([]Record, 3*bs)
	if err := be.ReadBlocks([]RangeXfer{
		{Disk: 0, Block: 0, Data: rbuf[:2*bs]},
		{Disk: 1, Block: 3, Data: rbuf[2*bs:]},
	}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	w := samples[0]
	if w.Op != "write" || w.Blocks != 2 || w.Runs != 2 || w.PerDisk[0] != 1 || w.PerDisk[1] != 1 {
		t.Fatalf("write sample: %+v", w)
	}
	r := samples[1]
	if r.Op != "read" || r.Blocks != 3 || r.Runs != 2 || r.PerDisk[0] != 2 || r.PerDisk[1] != 1 {
		t.Fatalf("run read sample: %+v", r)
	}
	if r.Dur < 0 || r.End().Before(r.Start) {
		t.Fatalf("nonsensical timing: %+v", r)
	}

	// A nil observer is a no-op wrap: the backend comes back untouched.
	inner := MemBackend()
	if InstrumentBackend(inner, nil) != inner {
		t.Fatal("nil observer should return the inner backend")
	}
}

// TestInstrumentedSystemSamplesBatches: a System over an instrumented
// backend reports each of its batches as one sample, also when concurrent
// dispatch moves every transfer of the batch on its own goroutine.
func TestInstrumentedSystemSamplesBatches(t *testing.T) {
	cfg := testConfig()
	for _, concurrent := range []bool{false, true} {
		var mu sync.Mutex
		var samples []OpSample
		sys, err := NewSystem(cfg, InstrumentBackend(MemBackend(), func(s OpSample) {
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.SetConcurrent(concurrent)
		if err := sys.LoadRecords(PortionA, sequentialRecords(cfg.N)); err != nil {
			t.Fatal(err)
		}
		if chunks := cfg.Stripes() / sys.chunkStripes(); len(samples) != chunks {
			t.Fatalf("concurrent=%v: load gave %d samples, want one per chunk (%d)", concurrent, len(samples), chunks)
		}
		samples = nil
		// Four striped waves coalesce into one run per disk: one batch of
		// D transfers. The write is one wave: one batch of D single blocks.
		buf := sys.AcquireBuffer()
		if err := sys.ParallelReadGroup(PortionA, groupShapes(cfg)["striped"], buf); err != nil {
			t.Fatal(err)
		}
		if err := sys.WriteStripe(PortionB, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		waves := cfg.FramesPerDisk()
		if len(samples) != 2 {
			t.Fatalf("concurrent=%v: got %d samples, want 2: %+v", concurrent, len(samples), samples)
		}
		if r := samples[0]; r.Op != "read" || r.Runs != cfg.D || r.Blocks != waves*cfg.D || r.PerDisk[0] != waves {
			t.Errorf("concurrent=%v: read sample %+v", concurrent, r)
		}
		if w := samples[1]; w.Op != "write" || w.Runs != cfg.D || w.Blocks != cfg.D || w.PerDisk[cfg.D-1] != 1 {
			t.Errorf("concurrent=%v: write sample %+v", concurrent, w)
		}
	}
}
