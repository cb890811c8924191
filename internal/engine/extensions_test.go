package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// TestMLDInversePass: the inverse of a random MLD permutation runs in
// exactly one pass with independent reads and striped writes (Section 7's
// "inverse of a one-pass permutation is one-pass").
func TestMLDInversePass(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	for _, cfg := range testConfigs {
		n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
		if b == m {
			continue
		}
		for trial := 0; trial < 5; trial++ {
			// p = inverse of a random MLD permutation.
			mld := randomMLD(rng, n, b, m)
			p := mld.Inverse()
			sys := newLoaded(t, cfg)
			if err := RunMLDInversePass(context.Background(), sys, p, Options{}); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			if err := VerifyBMMC(sys, sys.Source(), p); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			if got := sys.Stats().ParallelIOs(); got != cfg.PassIOs() {
				t.Errorf("%v: inverse-MLD pass used %d I/Os, want %d", cfg, got, cfg.PassIOs())
			}
			// Reads balance across disks (the mirror of MLD property 3).
			st := sys.Stats()
			for disk, r := range st.PerDiskReads {
				if r != cfg.BlocksPerDisk() {
					t.Errorf("%v: disk %d read %d blocks, want %d", cfg, disk, r, cfg.BlocksPerDisk())
				}
			}
		}
	}
}

// TestMLDInverseRoundTrip: an MLD pass followed by the inverse pass of the
// same permutation restores the identity.
func TestMLDInverseRoundTrip(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	rng := rand.New(rand.NewSource(131))
	mld := randomMLD(rng, cfg.LgN(), cfg.LgB(), cfg.LgM())
	sys := newLoaded(t, cfg)
	if err := RunMLDPass(context.Background(), sys, mld, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := RunMLDInversePass(context.Background(), sys, mld.Inverse(), Options{}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBMMC(sys, sys.Source(), perm.Identity(cfg.LgN())); err != nil {
		t.Fatal(err)
	}
}

func TestMLDInverseRejectsWrongClass(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	sys := newLoaded(t, cfg)
	p := perm.BitReversal(cfg.LgN())
	if p.Inverse().IsMLD(cfg.LgB(), cfg.LgM()) {
		t.Skip("bit reversal inverse unexpectedly MLD here")
	}
	if err := RunMLDInversePass(context.Background(), sys, p, Options{}); err == nil {
		t.Fatal("non-inverse-MLD permutation accepted")
	}
}

// TestUngroupedAblation: the ungrouped factoring produces the same final
// layout at 2g+2 passes, and the grouped algorithm is strictly cheaper
// whenever g >= 1.
func TestUngroupedAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	cfg := pdm.Config{N: 1 << 12, D: 8, B: 4, M: 1 << 8}
	n := cfg.LgN()
	for trial := 0; trial < 8; trial++ {
		p := perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))

		sysU := newLoaded(t, cfg)
		resU, err := runUngrouped(context.Background(), sysU, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyBMMC(sysU, sysU.Source(), p); err != nil {
			t.Fatalf("ungrouped run corrupted data: %v", err)
		}

		sysG := newLoaded(t, cfg)
		resG, err := runFactored(context.Background(), sysG, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.IsMRC(cfg.LgM()) {
			continue
		}
		g := resG.Passes - 1
		if resU.Passes != 2*g+2 {
			t.Fatalf("ungrouped used %d passes, want 2g+2 = %d", resU.Passes, 2*g+2)
		}
		if resG.ParallelIOs >= resU.ParallelIOs {
			t.Fatalf("grouping did not save I/Os: %d vs %d", resG.ParallelIOs, resU.ParallelIOs)
		}
	}
}

// TestCompiledEngineEquivalence: the compiled-applier engines produce the
// identical final layout as direct per-record matrix application (guarding
// the optimization).
func TestCompiledEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	n := cfg.LgN()
	for trial := 0; trial < 5; trial++ {
		p := perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
		sys := newLoaded(t, cfg)
		if _, err := runFactored(context.Background(), sys, p, Options{}); err != nil {
			t.Fatal(err)
		}
		recs, err := sys.DumpRecords(sys.Source())
		if err != nil {
			t.Fatal(err)
		}
		for y, r := range recs {
			if p.Apply(r.Key) != uint64(y) {
				t.Fatalf("record %d at %d, direct Apply says %d", r.Key, y, p.Apply(r.Key))
			}
		}
	}
}
