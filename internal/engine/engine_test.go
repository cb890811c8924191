package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/factor"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

var testConfigs = []pdm.Config{
	{N: 1 << 10, D: 4, B: 8, M: 1 << 7},
	{N: 1 << 12, D: 8, B: 4, M: 1 << 8},
	{N: 1 << 11, D: 2, B: 16, M: 1 << 8},
	{N: 1 << 12, D: 16, B: 2, M: 1 << 7},
	{N: 1 << 9, D: 1, B: 8, M: 1 << 6},
}

func newLoaded(t *testing.T, cfg pdm.Config) *pdm.System {
	t.Helper()
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	return sys
}

// runPlanned builds a plan for p at sys's geometry and executes it through
// RunPlan — the only multi-pass entry point.
func runPlanned(ctx context.Context, sys *pdm.System, p perm.BMMC, opt Options, build func(p perm.BMMC, b, m int) (*factor.Plan, error)) (*Result, error) {
	cfg := sys.Config()
	plan, err := build(p, cfg.LgB(), cfg.LgM())
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, sys, plan, opt)
}

// runAuto runs p under the paper's dispatch (factor.Dispatch, unfused).
func runAuto(ctx context.Context, sys *pdm.System, p perm.BMMC, opt Options) (*Result, error) {
	return runPlanned(ctx, sys, p, opt, func(p perm.BMMC, b, m int) (*factor.Plan, error) {
		_, plan, err := factor.Dispatch(p, b, m, false)
		return plan, err
	})
}

// factored is the verbatim Section 5 factoring, even for one-pass
// classes; the identity stays free.
func factored(p perm.BMMC, b, m int) (*factor.Plan, error) {
	if p.IsIdentity() {
		return nil, nil
	}
	return factor.Factorize(p, b, m)
}

// runFactored runs the verbatim Section 5 factoring of p.
func runFactored(ctx context.Context, sys *pdm.System, p perm.BMMC, opt Options) (*Result, error) {
	return runPlanned(ctx, sys, p, opt, factored)
}

// runFused runs the Section 5 factoring of p after factor.Fuse.
func runFused(ctx context.Context, sys *pdm.System, p perm.BMMC, opt Options) (*Result, error) {
	return runPlanned(ctx, sys, p, opt, func(p perm.BMMC, b, m int) (*factor.Plan, error) {
		plan, err := factored(p, b, m)
		if plan == nil || err != nil {
			return plan, err
		}
		return factor.Fuse(plan, b, m), nil
	})
}

// runUngrouped runs the Theorem 17 ablation: the same factorization with
// every factor as its own pass (2g+2 passes instead of g+1).
func runUngrouped(ctx context.Context, sys *pdm.System, p perm.BMMC, opt Options) (*Result, error) {
	return runPlanned(ctx, sys, p, opt, func(p perm.BMMC, b, m int) (*factor.Plan, error) {
		if p.IsIdentity() {
			return nil, nil
		}
		passes, err := factor.FactorizeUngrouped(p, b, m)
		if err != nil {
			return nil, err
		}
		return &factor.Plan{Passes: passes}, nil
	})
}

// randomMLD constructs a random MLD permutation for the given geometry.
func randomMLD(rng *rand.Rand, n, b, m int) perm.BMMC {
	return perm.MustNew(gf2.RandomMLD(rng, n, b, m), gf2.RandomVec(rng, n))
}

func TestMRCPassGrayCode(t *testing.T) {
	for _, cfg := range testConfigs {
		sys := newLoaded(t, cfg)
		p := perm.GrayCode(cfg.LgN())
		if err := RunMRCPass(context.Background(), sys, p, Options{}); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if err := VerifyBMMC(sys, sys.Source(), p); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if got := sys.Stats().ParallelIOs(); got != cfg.PassIOs() {
			t.Errorf("%v: MRC pass used %d I/Os, want exactly %d", cfg, got, cfg.PassIOs())
		}
	}
}

func TestMRCPassRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, cfg := range testConfigs {
		for trial := 0; trial < 5; trial++ {
			sys := newLoaded(t, cfg)
			p := perm.MustNew(gf2.RandomMRC(rng, cfg.LgN(), cfg.LgM()), gf2.RandomVec(rng, cfg.LgN()))
			if err := RunMRCPass(context.Background(), sys, p, Options{}); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			if err := VerifyBMMC(sys, sys.Source(), p); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
		}
	}
}

func TestMRCPassRejectsNonMRC(t *testing.T) {
	cfg := testConfigs[0]
	sys := newLoaded(t, cfg)
	if err := RunMRCPass(context.Background(), sys, perm.BitReversal(cfg.LgN()), Options{}); err == nil {
		t.Fatal("bit reversal accepted as MRC pass")
	}
}

func TestMLDPassRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, cfg := range testConfigs {
		n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
		if b == m {
			continue
		}
		for trial := 0; trial < 5; trial++ {
			sys := newLoaded(t, cfg)
			p := randomMLD(rng, n, b, m)
			if err := RunMLDPass(context.Background(), sys, p, Options{}); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			if err := VerifyBMMC(sys, sys.Source(), p); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			// Theorem 15: exactly one pass.
			if got := sys.Stats().ParallelIOs(); got != cfg.PassIOs() {
				t.Errorf("%v: MLD pass used %d I/Os, want exactly %d", cfg, got, cfg.PassIOs())
			}
			// Independent writes must still balance across disks.
			st := sys.Stats()
			for disk, w := range st.PerDiskWrites {
				if w != cfg.BlocksPerDisk() {
					t.Errorf("%v: disk %d wrote %d blocks, want %d", cfg, disk, w, cfg.BlocksPerDisk())
				}
			}
		}
	}
}

func TestMLDPassRejectsNonMLD(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	sys := newLoaded(t, cfg)
	// Bit reversal moves block bits into memoryload bits: not MLD here.
	p := perm.BitReversal(cfg.LgN())
	if p.IsMLD(cfg.LgB(), cfg.LgM()) {
		t.Skip("unexpectedly MLD for this geometry")
	}
	if err := RunMLDPass(context.Background(), sys, p, Options{}); err == nil {
		t.Fatal("non-MLD permutation accepted")
	}
}

func TestRunBMMCRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, cfg := range testConfigs {
		n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
		if b == m {
			continue
		}
		for trial := 0; trial < 5; trial++ {
			sys := newLoaded(t, cfg)
			p := perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
			res, err := runFactored(context.Background(), sys, p, Options{})
			if err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			if err := VerifyBMMC(sys, sys.Source(), p); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			// Theorem 21: at most 2N/BD * (ceil(rank gamma/lg(M/B)) + 2).
			bound := cfg.PassIOs() * (ceilDiv(p.RankGamma(b), m-b) + 2)
			if res.ParallelIOs > bound {
				t.Errorf("%v: %d I/Os exceeds Theorem 21 bound %d", cfg, res.ParallelIOs, bound)
			}
			if res.ParallelIOs != res.Passes*cfg.PassIOs() {
				t.Errorf("%v: %d I/Os for %d passes", cfg, res.ParallelIOs, res.Passes)
			}
		}
	}
}

func TestRunBMMCCatalog(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	n := cfg.LgN()
	cases := []struct {
		name string
		p    perm.BMMC
	}{
		{"identity", perm.Identity(n)},
		{"bit reversal", perm.BitReversal(n)},
		{"transpose", perm.Transpose(6, 6)},
		{"gray", perm.GrayCode(n)},
		{"vector reversal", perm.VectorReversal(n)},
		{"rotate", perm.RotateBits(n, 5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := newLoaded(t, cfg)
			res, err := runFactored(context.Background(), sys, c.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyBMMC(sys, sys.Source(), c.p); err != nil {
				t.Fatal(err)
			}
			if c.name == "identity" && res.ParallelIOs != 0 {
				t.Errorf("identity cost %d I/Os", res.ParallelIOs)
			}
		})
	}
}

func TestRunAutoDispatch(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	rng := rand.New(rand.NewSource(83))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()

	// Identity: free.
	sys := newLoaded(t, cfg)
	res, err := runAuto(context.Background(), sys, perm.Identity(n), Options{})
	if err != nil || res.ParallelIOs != 0 {
		t.Fatalf("identity: %v, %d I/Os", err, res.ParallelIOs)
	}

	// MRC: one pass.
	sys = newLoaded(t, cfg)
	res, err = runAuto(context.Background(), sys, perm.GrayCode(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 || res.ParallelIOs != cfg.PassIOs() {
		t.Errorf("MRC dispatch: %d passes, %d I/Os", res.Passes, res.ParallelIOs)
	}

	// MLD: one pass.
	p := randomMLD(rng, n, b, m)
	if p.IsMRC(m) {
		t.Skip("sampled MLD degenerated to MRC")
	}
	sys = newLoaded(t, cfg)
	res, err = runAuto(context.Background(), sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Errorf("MLD dispatch used %d passes", res.Passes)
	}
	if err := VerifyBMMC(sys, sys.Source(), p); err != nil {
		t.Fatal(err)
	}

	// General BMMC.
	sys = newLoaded(t, cfg)
	res, err = runAuto(context.Background(), sys, perm.BitReversal(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes < 2 {
		t.Errorf("bit reversal dispatched to %d passes", res.Passes)
	}
	if err := VerifyBMMC(sys, sys.Source(), perm.BitReversal(n)); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralPermuteRandomBijection(t *testing.T) {
	for _, cfg := range testConfigs {
		if cfg.M/(cfg.B*cfg.D) < 3 {
			continue
		}
		rng := rand.New(rand.NewSource(84))
		target := rng.Perm(cfg.N) // arbitrary, almost surely non-BMMC
		targetOf := func(x uint64) uint64 { return uint64(target[x]) }
		sys := newLoaded(t, cfg)
		res, err := GeneralPermute(context.Background(), sys, targetOf, Options{})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if err := VerifyMapping(sys, sys.Source(), targetOf); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		// Pass count: 1 + ceil(log_fanIn(N/M)) full passes.
		fanIn := cfg.M/(cfg.B*cfg.D) - 1
		wantPasses := 1
		for run := cfg.StripesPerMemoryload(); run < cfg.Stripes(); run *= fanIn {
			wantPasses++
		}
		if res.Passes != wantPasses {
			t.Errorf("%v: %d passes, want %d", cfg, res.Passes, wantPasses)
		}
		if res.ParallelIOs != wantPasses*cfg.PassIOs() {
			t.Errorf("%v: %d I/Os for %d passes", cfg, res.ParallelIOs, res.Passes)
		}
	}
}

func TestGeneralPermuteBMMCTarget(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	p := perm.BitReversal(cfg.LgN())
	sys := newLoaded(t, cfg)
	if _, err := GeneralPermute(context.Background(), sys, p.Apply, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBMMC(sys, sys.Source(), p); err != nil {
		t.Fatal(err)
	}
}

func TestNaivePermute(t *testing.T) {
	cfg := pdm.Config{N: 1 << 9, D: 4, B: 4, M: 1 << 6}
	rng := rand.New(rand.NewSource(85))
	target := rng.Perm(cfg.N)
	targetOf := func(x uint64) uint64 { return uint64(target[x]) }
	sys := newLoaded(t, cfg)
	res, err := NaivePermute(context.Background(), sys, targetOf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMapping(sys, sys.Source(), targetOf); err != nil {
		t.Fatal(err)
	}
	// Cost shape: about N/D reads plus N/BD writes; allow slack for skewed
	// disk distributions but reject anything near the sorting cost scale.
	loose := 2*(cfg.N/cfg.D) + cfg.N/(cfg.B*cfg.D)
	if res.ParallelIOs > loose {
		t.Errorf("naive cost %d exceeds loose bound %d", res.ParallelIOs, loose)
	}
	st := sys.Stats()
	if st.ParallelWrites != cfg.N/(cfg.B*cfg.D) {
		t.Errorf("naive writes = %d, want N/BD = %d", st.ParallelWrites, cfg.N/(cfg.B*cfg.D))
	}
}

func TestNaivePermuteBMMCTarget(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	p := perm.Transpose(5, 5)
	sys := newLoaded(t, cfg)
	if _, err := NaivePermute(context.Background(), sys, p.Apply, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBMMC(sys, sys.Source(), p); err != nil {
		t.Fatal(err)
	}
}

// TestChainedPasses verifies portion ping-ponging: two permutations run
// back-to-back compose correctly.
func TestChainedPasses(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	sys := newLoaded(t, cfg)
	n := cfg.LgN()
	p1 := perm.GrayCode(n)
	p2 := perm.BitReversal(n)
	if _, err := runFactored(context.Background(), sys, p1, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := runFactored(context.Background(), sys, p2, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBMMC(sys, sys.Source(), p2.Compose(p1)); err != nil {
		t.Fatal(err)
	}
}

// TestFileBackedBMMC runs the full algorithm against file-backed disks.
func TestFileBackedBMMC(t *testing.T) {
	cfg := pdm.Config{N: 1 << 9, D: 4, B: 4, M: 1 << 6}
	sys, err := pdm.NewSystem(cfg, pdm.FileBackend(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	p := perm.BitReversal(cfg.LgN())
	if _, err := runFactored(context.Background(), sys, p, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBMMC(sys, sys.Source(), p); err != nil {
		t.Fatal(err)
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
