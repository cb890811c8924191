package detect

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

var detectConfigs = []pdm.Config{
	{N: 1 << 10, D: 4, B: 8, M: 1 << 7},
	{N: 1 << 12, D: 8, B: 4, M: 1 << 8},
	{N: 1 << 12, D: 16, B: 2, M: 1 << 7},
	{N: 1 << 9, D: 1, B: 8, M: 1 << 6}, // single disk
	{N: 1 << 11, D: 2, B: 16, M: 1 << 8},
	{N: 1 << 8, D: 4, B: 1, M: 1 << 5}, // B = 1: no offset columns
}

func newTargetSystem(t *testing.T, cfg pdm.Config, targetOf func(uint64) uint64) *pdm.System {
	t.Helper()
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := LoadTargetVector(sys, targetOf); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDetectRecoversBMMC(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, cfg := range detectConfigs {
		n := cfg.LgN()
		for trial := 0; trial < 8; trial++ {
			p := perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
			sys := newTargetSystem(t, cfg, p.Apply)
			res, err := Detect(sys, sys.Source())
			if err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			if !res.IsBMMC {
				t.Fatalf("%v: BMMC permutation not detected (failed at %d)", cfg, res.FailedAt)
			}
			if !res.Perm.Equal(p) {
				t.Fatalf("%v: detected wrong permutation:\ngot\n%v\nwant\n%v", cfg, res.Perm.A, p.A)
			}
			// Exact candidate-read count and total bound from Section 6.
			if res.CandidateReads != CandidateReadBound(cfg) {
				t.Errorf("%v: candidate reads %d, want %d", cfg, res.CandidateReads, CandidateReadBound(cfg))
			}
			if res.VerifyReads != cfg.Stripes() {
				t.Errorf("%v: verify reads %d, want N/BD = %d", cfg, res.VerifyReads, cfg.Stripes())
			}
		}
	}
}

// TestPermutationAccessor covers the exported Result.Permutation path the
// service submit round trip uses: success returns a marshal-safe value
// (affine offset included), failure returns a descriptive error instead of
// a zero permutation.
func TestPermutationAccessor(t *testing.T) {
	cfg := detectConfigs[0]
	n := cfg.LgN()

	// Vector reversal: identity matrix with the all-ones complement, the
	// canonical affine-offset case.
	p := perm.VectorReversal(n)
	sys := newTargetSystem(t, cfg, p.Apply)
	res, err := Detect(sys, sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Permutation()
	if err != nil {
		t.Fatal(err)
	}
	back, err := perm.Parse(got.Marshal())
	if err != nil {
		t.Fatalf("marshaling the detected permutation: %v", err)
	}
	if !back.Equal(p) {
		t.Fatalf("detect -> marshal -> parse changed the permutation:\ngot c=%b want c=%b", uint64(back.C), uint64(p.C))
	}

	// A non-BMMC vector yields an error, not a zero value.
	sys = newTargetSystem(t, cfg, func(x uint64) uint64 {
		if x == 0 || x == 3 {
			return 3 - x // swap two targets: still a permutation, not BMMC
		}
		return x
	})
	res, err = Detect(sys, sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	if res.IsBMMC {
		t.Fatal("corrupted vector detected as BMMC")
	}
	if _, err := res.Permutation(); err == nil {
		t.Fatal("Permutation() on a non-BMMC result returned no error")
	}
}

func TestDetectCatalog(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 8, B: 4, M: 1 << 8}
	n := cfg.LgN()
	for _, p := range []perm.BMMC{
		perm.Identity(n),
		perm.GrayCode(n),
		perm.BitReversal(n),
		perm.Transpose(5, 7),
		perm.VectorReversal(n),
	} {
		sys := newTargetSystem(t, cfg, p.Apply)
		res, err := Detect(sys, sys.Source())
		if err != nil {
			t.Fatal(err)
		}
		if !res.IsBMMC || !res.Perm.Equal(p) {
			t.Fatalf("catalog permutation not recovered")
		}
	}
}

func TestDetectRejectsRandomVector(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, cfg := range detectConfigs {
		target := rng.Perm(cfg.N)
		sys := newTargetSystem(t, cfg, func(x uint64) uint64 { return uint64(target[x]) })
		res, err := Detect(sys, sys.Source())
		if err != nil {
			t.Fatal(err)
		}
		if res.IsBMMC {
			t.Fatalf("%v: random permutation detected as BMMC", cfg)
		}
		// Total cost stays within the Section 6 budget even on rejection.
		if got, bound := res.ParallelReads(), cfg.Stripes()+CandidateReadBound(cfg); got > bound {
			t.Errorf("%v: %d reads exceeds bound %d", cfg, got, bound)
		}
	}
}

// TestDetectCorruptedBMMC plants a single swapped pair in an otherwise BMMC
// vector: the candidate matrix comes out right but verification must catch
// the mismatch and stop early.
func TestDetectCorruptedBMMC(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	p := perm.BitReversal(cfg.LgN())
	// Swap the targets of two high addresses (outside the candidate
	// schedule, which touches only small powers of two).
	x1, x2 := uint64(cfg.N-3), uint64(cfg.N-7)
	targetOf := func(x uint64) uint64 {
		switch x {
		case x1:
			return p.Apply(x2)
		case x2:
			return p.Apply(x1)
		default:
			return p.Apply(x)
		}
	}
	sys := newTargetSystem(t, cfg, targetOf)
	res, err := Detect(sys, sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	if res.IsBMMC {
		t.Fatal("corrupted vector accepted as BMMC")
	}
	want := x1
	if x2 < x1 {
		want = x2
	}
	if res.FailedAt != int64(want) {
		t.Errorf("failed at %d, want first mismatch %d", res.FailedAt, want)
	}
	// Early exit: strictly fewer verify reads than a full scan needs,
	// since the mismatch is found on its stripe.
	wantReads := int(want)/(cfg.B*cfg.D) + 1
	if res.VerifyReads != wantReads {
		t.Errorf("verify reads %d, want %d", res.VerifyReads, wantReads)
	}
}

// TestDetectNonPermutationVector: a constant vector yields a singular
// candidate and is rejected before the verification scan.
func TestDetectNonPermutationVector(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	sys := newTargetSystem(t, cfg, func(x uint64) uint64 { return 0 })
	res, err := Detect(sys, sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	if res.IsBMMC {
		t.Fatal("constant vector accepted")
	}
	if res.VerifyReads != 0 {
		t.Errorf("verification ran on singular candidate (%d reads)", res.VerifyReads)
	}
}

// TestDetectStatsMatchSystem: the reads reported by Detect agree with the
// disk system's own accounting.
func TestDetectStatsMatchSystem(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 8, B: 4, M: 1 << 8}
	p := perm.GrayCode(cfg.LgN())
	sys := newTargetSystem(t, cfg, p.Apply)
	res, err := Detect(sys, sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.ParallelReads != res.ParallelReads() {
		t.Errorf("system counted %d reads, Detect reported %d", st.ParallelReads, res.ParallelReads())
	}
	if st.ParallelWrites != 0 {
		t.Errorf("detection performed %d writes", st.ParallelWrites)
	}
}

// TestDetectReportsClass: the detector classifies what it finds, enabling
// the Section 6 dispatch to "possibly a faster algorithm for a more
// restricted permutation class".
func TestDetectReportsClass(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	n := cfg.LgN()
	cases := []struct {
		name string
		p    perm.BMMC
		want perm.Class
	}{
		{"identity", perm.Identity(n), perm.ClassIdentity},
		{"gray", perm.GrayCode(n), perm.ClassMRC},
		{"bitrev", perm.BitReversal(n), perm.ClassBMMC},
	}
	for _, c := range cases {
		sys := newTargetSystem(t, cfg, c.p.Apply)
		res, err := Detect(sys, sys.Source())
		if err != nil {
			t.Fatal(err)
		}
		if !res.IsBMMC || res.Class != c.want {
			t.Errorf("%s: class %v, want %v", c.name, res.Class, c.want)
		}
	}
}

// allocated reports the bytes fn allocates on the heap, after two
// collections settle what came before.
func allocated(fn func()) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadTargetVectorHoldsFewChunks: storing a 2^20-address target
// vector on file storage allocates a few 256 KiB chunks, not N records.
func TestLoadTargetVectorHoldsFewChunks(t *testing.T) {
	cfg := pdm.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}
	sys, err := pdm.NewSystem(cfg, pdm.FileBackend(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p := perm.BitReversal(cfg.LgN())
	const limit = 4 << 18 // four chunks of 2^14 16-byte records
	var err2 error
	if got := allocated(func() { err2 = LoadTargetVector(sys, p.Apply) }); err2 != nil {
		t.Fatal(err2)
	} else if got > limit {
		t.Errorf("LoadTargetVector of %d addresses allocated %d bytes, want at most four chunks (%d)", cfg.N, got, limit)
	}
	res, err := Detect(sys, sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsBMMC || !res.Perm.Equal(p) {
		t.Fatalf("detection after the chunked load: BMMC=%v perm=%v, want bit reversal", res.IsBMMC, res.Perm)
	}
}

// TestChaosLoadTargetVectorWriteFault: a storage fault part way through a
// load fails it and leaves the previous vector readable, whole.
func TestChaosLoadTargetVectorWriteFault(t *testing.T) {
	cfg := pdm.Config{N: 1 << 16, D: 4, B: 8, M: 1 << 7} // four chunks
	chunkXfers := (1 << 14) / cfg.B
	fb := pdm.NewFlakyBackend(pdm.MemBackend(), pdm.FlakyOptions{FailAfterN: 2*chunkXfers + chunkXfers/2, Mode: pdm.FaultWriteOnly})
	fb.Disarm()
	sys, err := pdm.NewSystem(cfg, fb)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p := perm.GrayCode(cfg.LgN())
	if err := LoadTargetVector(sys, p.Apply); err != nil {
		t.Fatal(err)
	}
	before, err := sys.DumpRecords(sys.Source())
	if err != nil {
		t.Fatal(err)
	}

	fb.Arm()
	err = LoadTargetVector(sys, perm.BitReversal(cfg.LgN()).Apply)
	fb.Disarm()
	if !errors.Is(err, pdm.ErrInjectedFault) {
		t.Fatalf("faulted load error = %v, want the injected fault", err)
	}
	after, err := sys.DumpRecords(sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, before) {
		t.Fatal("a faulted LoadTargetVector changed the stored vector")
	}
	res, err := Detect(sys, sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsBMMC || !res.Perm.Equal(p) {
		t.Fatalf("detection after the faulted load: BMMC=%v, want the Gray code", res.IsBMMC)
	}
}
