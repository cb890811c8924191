package pdm

import (
	"errors"
	"testing"
)

func TestFaultyDiskInjection(t *testing.T) {
	cfg := testConfig()
	faulty := NewFaultyBackend(MemBackend(), 2)
	sys, err := NewSystem(cfg, faulty)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// LoadRecords writes BlocksPerDisk stripes of D blocks, far beyond the
	// fault threshold of 2.
	if err := sys.LoadRecords(PortionA, sequentialRecords(cfg.N)); err == nil {
		t.Fatal("load through faulty backend succeeded")
	} else if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("fault not wrapped: %v", err)
	}
}

func TestFaultyDiskThreshold(t *testing.T) {
	d := NewFaultyBackend(MemBackend(), 3)
	if err := d.Open(1, 8, 4); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]Record, 4)
	xs := []RangeXfer{{Disk: 0, Block: 0, Data: buf}}
	for i := 0; i < 3; i++ {
		if err := d.ReadBlocks(xs); err != nil {
			t.Fatalf("op %d failed before threshold: %v", i, err)
		}
	}
	if err := d.ReadBlocks(xs); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("op 3 did not fault: %v", err)
	}
	if d.Ops() != 4 {
		t.Errorf("ops = %d, want 4", d.Ops())
	}
	// Read-only faults leave writes working.
	d2 := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 1, Mode: FaultReadOnly})
	if err := d2.Open(1, 8, 4); err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.WriteBlocks(xs); err != nil {
		t.Errorf("write failed with read-only faults: %v", err)
	}
	if err := d2.ReadBlocks(xs); !errors.Is(err, ErrInjectedFault) {
		t.Error("read did not fault")
	}
}

// TestFaultPropagatesThroughParallelIO: an injected fault surfaces from a
// one-wave ParallelReadGroup and the operation is not counted.
func TestFaultPropagatesThroughParallelIO(t *testing.T) {
	cfg := testConfig()
	// Only the first transfer faults; the backend recovers after it.
	faulty := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 1, RecoverAfter: 1})
	sys, err := NewSystem(cfg, faulty)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	buf := sys.AcquireBuffer()
	err = sys.ParallelReadGroup(PortionA, [][]BlockIO{{{Disk: 2, Block: 0, Frame: 0}}}, buf)
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("fault not propagated: %v", err)
	}
	if sys.Stats().ParallelReads != 0 {
		t.Error("failed parallel read was counted")
	}
	// Healthy disks keep working.
	if err := sys.ParallelReadGroup(PortionA, [][]BlockIO{{{Disk: 0, Block: 0, Frame: 0}}}, buf); err != nil {
		t.Fatalf("healthy disk failed: %v", err)
	}
}

// TestConcurrentDispatchEquivalence: concurrent dispatch, one goroutine per
// transfer, produces bit-identical results and identical statistics.
func TestConcurrentDispatchEquivalence(t *testing.T) {
	cfg := testConfig()
	seq, _ := NewMemSystem(cfg)
	defer seq.Close()
	con, _ := NewMemSystem(cfg)
	defer con.Close()
	con.SetConcurrent(true)

	recs := sequentialRecords(cfg.N)
	_ = seq.LoadRecords(PortionA, recs)
	_ = con.LoadRecords(PortionA, recs)

	// Each system moves stripes through its own buffer, so a bad read on
	// one side cannot be masked by the other side's good one.
	seqBuf, conBuf := seq.AcquireBuffer(), con.AcquireBuffer()
	for stripe := 0; stripe < cfg.Stripes(); stripe++ {
		if err := seq.ReadStripe(PortionA, stripe, 0, seqBuf); err != nil {
			t.Fatal(err)
		}
		if err := con.ReadStripe(PortionA, stripe, 0, conBuf); err != nil {
			t.Fatal(err)
		}
		if err := seq.WriteStripe(PortionB, cfg.Stripes()-1-stripe, 0, seqBuf); err != nil {
			t.Fatal(err)
		}
		if err := con.WriteStripe(PortionB, cfg.Stripes()-1-stripe, 0, conBuf); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := seq.DumpRecords(PortionB)
	b, _ := con.DumpRecords(PortionB)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at record %d", i)
		}
	}
	if seq.Stats().ParallelIOs() != con.Stats().ParallelIOs() {
		t.Error("I/O counts differ between dispatch modes")
	}
}

// TestConcurrentFaultPropagation: faults still surface under concurrent
// dispatch.
func TestConcurrentFaultPropagation(t *testing.T) {
	cfg := testConfig()
	sys, err := NewSystem(cfg, NewFaultyBackend(MemBackend(), 1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.SetConcurrent(true)
	ios := make([]BlockIO, cfg.D)
	for d := range ios {
		ios[d] = BlockIO{Disk: d, Block: 0, Frame: d}
	}
	if err := sys.ParallelReadGroup(PortionA, [][]BlockIO{ios}, sys.AcquireBuffer()); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("concurrent fault not propagated: %v", err)
	}
}
