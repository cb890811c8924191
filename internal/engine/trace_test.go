package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/pdm"
	"repro/internal/perm"
)

// These tests verify the *structure* of each pass's I/O schedule, not just
// its count — the paper's defining distinction between the one-pass
// classes: MRC uses striped reads and striped writes; MLD uses striped
// reads and independent writes; the inverse-MLD pass (Section 7) uses
// independent reads and striped writes.

func TestMRCPassScheduleIsFullyStriped(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	sys := newLoaded(t, cfg)
	tr := new(pdm.Trace).Attach(sys)
	if err := RunMRCPass(context.Background(), sys, perm.GrayCode(cfg.LgN()), Options{}); err != nil {
		t.Fatal(err)
	}
	if !tr.AllStriped(pdm.IORead, cfg.D) {
		t.Error("MRC pass issued a non-striped read")
	}
	if !tr.AllStriped(pdm.IOWrite, cfg.D) {
		t.Error("MRC pass issued a non-striped write")
	}
	if len(tr.Entries) != cfg.PassIOs() {
		t.Errorf("trace has %d entries, want %d", len(tr.Entries), cfg.PassIOs())
	}
}

func TestMLDPassScheduleShape(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 8, B: 4, M: 1 << 8}
	rng := rand.New(rand.NewSource(150))
	nonStripedSeen := false
	for trial := 0; trial < 5 && !nonStripedSeen; trial++ {
		p := randomMLD(rng, cfg.LgN(), cfg.LgB(), cfg.LgM())
		sys := newLoaded(t, cfg)
		tr := new(pdm.Trace).Attach(sys)
		if err := RunMLDPass(context.Background(), sys, p, Options{}); err != nil {
			t.Fatal(err)
		}
		// Reads are always striped.
		if !tr.AllStriped(pdm.IORead, cfg.D) {
			t.Fatal("MLD pass issued a non-striped read")
		}
		// Writes touch every disk exactly once per operation (full
		// parallelism) but need not be striped.
		for _, e := range tr.Writes() {
			if len(e.IOs) != cfg.D {
				t.Fatalf("MLD write used %d disks, want %d", len(e.IOs), cfg.D)
			}
			if !e.IsStriped(cfg.D) {
				nonStripedSeen = true
			}
		}
	}
	if !nonStripedSeen {
		t.Error("no independent (non-striped) MLD write observed across trials")
	}
}

func TestInverseMLDScheduleShape(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 8, B: 4, M: 1 << 8}
	rng := rand.New(rand.NewSource(151))
	p := randomMLD(rng, cfg.LgN(), cfg.LgB(), cfg.LgM()).Inverse()
	sys := newLoaded(t, cfg)
	tr := new(pdm.Trace).Attach(sys)
	if err := RunMLDInversePass(context.Background(), sys, p, Options{}); err != nil {
		t.Fatal(err)
	}
	// Mirror image: writes striped, reads independent-but-full.
	if !tr.AllStriped(pdm.IOWrite, cfg.D) {
		t.Error("inverse-MLD pass issued a non-striped write")
	}
	for _, e := range tr.Reads() {
		if len(e.IOs) != cfg.D {
			t.Fatalf("inverse-MLD read used %d disks, want %d", len(e.IOs), cfg.D)
		}
	}
}

func TestTraceRendering(t *testing.T) {
	cfg := pdm.Config{N: 1 << 9, D: 2, B: 8, M: 1 << 6}
	sys := newLoaded(t, cfg)
	tr := new(pdm.Trace).Attach(sys)
	if err := RunMRCPass(context.Background(), sys, perm.GrayCode(cfg.LgN()), Options{}); err != nil {
		t.Fatal(err)
	}
	out := tr.String()
	if out == "" {
		t.Fatal("empty trace rendering")
	}
	if tr.Entries[0].String() == "" {
		t.Fatal("empty entry rendering")
	}
}
