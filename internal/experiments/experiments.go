package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// DefaultConfig is the machine geometry used when the caller does not
// specify one: N=2^16 records, D=8 disks, B=16 records/block, M=2^11.
var DefaultConfig = pdm.Config{N: 1 << 16, D: 8, B: 16, M: 1 << 11}

// Harness is the execution environment every experiment generator runs
// under. cmd/bmmcbench builds one from its flags; the parallel-I/O counts
// in the tables are identical for every Exec and ConcurrentIO setting, so
// only wall-clock changes. Generators are methods on a Harness value, so
// experiments with different settings may run concurrently.
type Harness struct {
	// Exec is the pass-runner mode (three-stage pipeline or sequential).
	Exec engine.Options
	// ConcurrentIO toggles per-transfer goroutine dispatch on the systems the
	// experiments build, matching pdm.System.SetConcurrent.
	ConcurrentIO bool
	// Fuse makes every factored-driver run execute the fused plan instead
	// of the verbatim Section 5 pass list. Off by default so the tables
	// reproduce the paper's unoptimized algorithm; the fusion experiment
	// always compares both modes regardless of this setting.
	Fuse bool
	// PlanCacheSize is the plan-cache capacity of the Engine the plancache
	// experiment builds.
	PlanCacheSize int
}

// DefaultHarness returns the default environment: the default pass-runner
// mode, serial disk dispatch, no fusion, and the default plan-cache size.
func DefaultHarness() Harness {
	return Harness{Exec: engine.DefaultOptions(), PlanCacheSize: core.DefaultPlanCacheEntries}
}

// newSystem builds a loaded memory-backed system honoring ConcurrentIO.
func (h Harness) newSystem(cfg pdm.Config) (*pdm.System, error) {
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		return nil, err
	}
	sys.SetConcurrent(h.ConcurrentIO)
	if err := engine.LoadSequential(sys); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// planner builds the plan one experiment row executes for p at lg B = b,
// lg M = m; a nil plan is the identity.
type planner func(p perm.BMMC, b, m int) (*factor.Plan, error)

// auto is the paper's dispatch: identity free, one-pass classes in one
// pass, everything else factored.
func auto(p perm.BMMC, b, m int) (*factor.Plan, error) {
	_, plan, err := factor.Dispatch(p, b, m, false)
	return plan, err
}

// factored is the Section 5 factoring even for one-pass classes (the
// identity stays free), fused when the harness asks for it.
func (h Harness) factored(p perm.BMMC, b, m int) (*factor.Plan, error) {
	if p.IsIdentity() {
		return nil, nil
	}
	plan, err := factor.Factorize(p, b, m)
	if err != nil || !h.Fuse {
		return plan, err
	}
	return factor.Fuse(plan, b, m), nil
}

// ungrouped is the Theorem 17 ablation: every factor its own pass.
func ungrouped(p perm.BMMC, b, m int) (*factor.Plan, error) {
	if p.IsIdentity() {
		return nil, nil
	}
	passes, err := factor.FactorizeUngrouped(p, b, m)
	if err != nil {
		return nil, err
	}
	return &factor.Plan{Passes: passes}, nil
}

// run plans p, executes the plan on a fresh memory-backed system, verifies
// every record landed correctly, and returns the engine result.
func (h Harness) run(ctx context.Context, cfg pdm.Config, p perm.BMMC, plan planner) (*engine.Result, error) {
	pl, err := plan(p, cfg.LgB(), cfg.LgM())
	if err != nil {
		return nil, err
	}
	sys, err := h.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	res, err := engine.RunPlan(ctx, sys, pl, h.Exec)
	if err != nil {
		return nil, err
	}
	if err := engine.VerifyBMMC(sys, sys.Source(), p); err != nil {
		return nil, fmt.Errorf("verification failed: %w", err)
	}
	return res, nil
}

// Table1 reproduces the class/pass-count comparison of Table 1: for each
// permutation class, the measured pass count of this paper's algorithm next
// to the upper bounds of the earlier algorithms in [4].
func (h Harness) Table1(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	t := &Table{
		ID:      "E2-E4 (Table 1)",
		Title:   fmt.Sprintf("permutation classes on %v", cfg),
		Columns: []string{"class", "instance", "measured passes", "old bound [4]", "new bound (Thm 21)", "within"},
		Notes: []string{
			"a pass is 2N/BD parallel I/Os; old BMMC bound is 2ceil((lgM-r)/lg(M/B))+H, old BPC is 2ceil(kappa/lg(M/B))+1, MRC is 1",
			fmt.Sprintf("H(N,M,B) = %d for this geometry", bounds.H(cfg)),
		},
	}
	type entry struct {
		class, name string
		p           perm.BMMC
	}
	entries := []entry{
		{"MRC", "Gray code", perm.GrayCode(n)},
		{"MRC", "inverse Gray code", perm.GrayCodeInverse(n)},
		{"MRC", "random MRC", perm.MustNew(gf2.RandomMRC(rng, n, m), gf2.RandomVec(rng, n))},
		{"BPC", "bit reversal", perm.BitReversal(n)},
		{"BPC", "transpose (square)", perm.Transpose(n/2, n-n/2)},
		{"BPC", "vector reversal", perm.VectorReversal(n)},
		{"BPC", "random BPC", perm.BMMC{A: gf2.RandomPermutationMatrix(rng, n)}},
		{"BMMC", "random BMMC", perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))},
		{"BMMC", "random BMMC", perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))},
	}
	for _, e := range entries {
		res, err := h.run(ctx, cfg, e.p, auto)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", e.class, e.name, err)
		}
		measured := res.Passes
		var oldBound int
		switch e.class {
		case "MRC":
			oldBound = 1
		case "BPC":
			oldBound = bounds.OldBPCPasses(cfg, e.p.MaxCrossRank(b, m))
		default:
			rLead := e.p.A.Submatrix(0, m, 0, m).Rank()
			oldBound = bounds.OldBMMCPasses(cfg, rLead)
		}
		newBound := bounds.NewBMMCPasses(cfg, e.p.RankGamma(b))
		if e.p.IsMRC(m) {
			newBound = 1
		}
		t.AddRow(e.class, e.name, itoa(measured), itoa(oldBound), itoa(newBound),
			passFail(measured <= newBound && measured <= oldBound))
	}
	return t, nil
}

// TightBounds reproduces the headline result (Theorems 3 and 21): sweeping
// rank gamma, the measured I/O count of the algorithm sits between the
// refined lower bound of Section 7 and the exact upper bound of Theorem 21.
func (h Harness) TightBounds(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b := cfg.LgN(), cfg.LgB()
	t := &Table{
		ID:      "E5/E10 (Thm 3, Thm 21, Sec 7)",
		Title:   fmt.Sprintf("measured I/Os vs tight bounds, rank sweep on %v", cfg),
		Columns: []string{"rank gamma", "passes", "measured I/Os", "LB (Thm 3)", "refined LB (S7)", "UB (Thm 21)", "within"},
		Notes: []string{
			"LB column is the Omega() expression (N/BD)(1+rank/lg(M/B)); refined LB is 2N/BD*rank/(2/(e ln2)+lg(M/B))",
		},
	}
	maxG := b
	if n-b < maxG {
		maxG = n - b
	}
	for g := 0; g <= maxG; g++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a := gf2.RandomNonsingularWithGamma(rng, n, b, g)
		p := perm.MustNew(a, gf2.RandomVec(rng, n))
		res, err := h.run(ctx, cfg, p, h.factored)
		if err != nil {
			return nil, err
		}
		lb := bounds.LowerBound(cfg, g)
		rlb := bounds.RefinedLowerBound(cfg, g)
		ub := bounds.UpperBound(cfg, g)
		ok := float64(res.ParallelIOs) >= rlb && res.ParallelIOs <= ub
		if p.IsIdentity() {
			ok = res.ParallelIOs == 0
		}
		t.AddRow(itoa(g), itoa(res.Passes), itoa(res.ParallelIOs), ftoa(lb), ftoa(rlb), itoa(ub), passFail(ok))
	}
	return t, nil
}

// Crossover reproduces the Section 1 comparison: for low rank gamma the
// BMMC algorithm beats the general-permutation (sorting) cost; the series
// shows where the advantage shrinks as rank grows.
func (h Harness) Crossover(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b := cfg.LgN(), cfg.LgB()
	t := &Table{
		ID:      "E7 (general-permutation comparison)",
		Title:   fmt.Sprintf("BMMC algorithm vs external merge sort on %v", cfg),
		Columns: []string{"rank gamma", "BMMC I/Os", "sort I/Os (measured)", "sort bound (formula)", "speedup", "BMMC wins"},
		Notes: []string{
			"sort baseline: striped merge sort, fan-in M/BD-1 (see DESIGN.md substitutions)",
			"sort bound column is the exact baseline formula; the paper's asymptotic sort term is (N/BD)lg(N/B)/lg(M/B) = " + ftoa(bounds.SortBound(cfg)),
		},
	}
	maxG := b
	if n-b < maxG {
		maxG = n - b
	}
	for g := 0; g <= maxG; g++ {
		a := gf2.RandomNonsingularWithGamma(rng, n, b, g)
		p := perm.MustNew(a, gf2.RandomVec(rng, n))
		res, err := h.run(ctx, cfg, p, h.factored)
		if err != nil {
			return nil, err
		}
		sys, err := h.newSystem(cfg)
		if err != nil {
			return nil, err
		}
		sortRes, err := engine.GeneralPermute(ctx, sys, p.Apply, h.Exec)
		if err != nil {
			sys.Close()
			return nil, err
		}
		if err := engine.VerifyBMMC(sys, sys.Source(), p); err != nil {
			sys.Close()
			return nil, err
		}
		sys.Close()
		speedup := float64(sortRes.ParallelIOs) / float64(res.ParallelIOs)
		t.AddRow(itoa(g), itoa(res.ParallelIOs), itoa(sortRes.ParallelIOs),
			itoa(bounds.MergeSortIOs(cfg)), fmt.Sprintf("%.2fx", speedup),
			passFail(res.ParallelIOs <= sortRes.ParallelIOs))
	}
	return t, nil
}

// MLDOnePass reproduces Theorem 15: every MLD permutation completes in
// exactly one pass (2N/BD parallel I/Os) with balanced independent writes.
func (h Harness) MLDOnePass(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	t := &Table{
		ID:      "E6 (Theorem 15)",
		Title:   fmt.Sprintf("MLD permutations in one pass on %v", cfg),
		Columns: []string{"instance", "measured I/Os", "2N/BD", "within"},
	}
	for trial := 0; trial < 6; trial++ {
		p := perm.MustNew(gf2.RandomMLD(rng, n, b, m), gf2.RandomVec(rng, n))
		sys, err := h.newSystem(cfg)
		if err != nil {
			return nil, err
		}
		if err := engine.RunMLDPass(ctx, sys, p, h.Exec); err != nil {
			sys.Close()
			return nil, err
		}
		if err := engine.VerifyBMMC(sys, sys.Source(), p); err != nil {
			sys.Close()
			return nil, err
		}
		ios := sys.Stats().ParallelIOs()
		sys.Close()
		t.AddRow(fmt.Sprintf("random MLD #%d", trial), itoa(ios), itoa(cfg.PassIOs()), passFail(ios == cfg.PassIOs()))
	}
	return t, nil
}

// Detection reproduces the Section 6 cost: detecting a BMMC permutation
// costs N/BD + ceil((lg(N/B)+1)/D) parallel reads, and rejection is cheap.
func (h Harness) Detection(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n := cfg.LgN()
	t := &Table{
		ID:      "E8 (Section 6)",
		Title:   fmt.Sprintf("run-time BMMC detection on %v", cfg),
		Columns: []string{"input vector", "detected", "candidate reads", "verify reads", "total", "bound", "within"},
		Notes:   []string{fmt.Sprintf("bound = N/BD + ceil((lg(N/B)+1)/D) = %d", bounds.DetectionBound(cfg))},
	}
	cases := []struct {
		name     string
		targetOf func(uint64) uint64
		isBMMC   bool
	}{
		{"bit reversal", perm.BitReversal(n).Apply, true},
		{"Gray code", perm.GrayCode(n).Apply, true},
		{"random BMMC", perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n)).Apply, true},
	}
	shuffled := rng.Perm(cfg.N)
	cases = append(cases, struct {
		name     string
		targetOf func(uint64) uint64
		isBMMC   bool
	}{"random permutation", func(x uint64) uint64 { return uint64(shuffled[x]) }, false})

	for _, c := range cases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sys, err := pdm.NewMemSystem(cfg)
		if err != nil {
			return nil, err
		}
		if err := detect.LoadTargetVector(sys, c.targetOf); err != nil {
			sys.Close()
			return nil, err
		}
		res, err := detect.Detect(sys, sys.Source())
		sys.Close()
		if err != nil {
			return nil, err
		}
		ok := res.IsBMMC == c.isBMMC && res.ParallelReads() <= bounds.DetectionBound(cfg)
		t.AddRow(c.name, fmt.Sprintf("%v", res.IsBMMC), itoa(res.CandidateReads),
			itoa(res.VerifyReads), itoa(res.ParallelReads()), itoa(bounds.DetectionBound(cfg)), passFail(ok))
	}
	return t, nil
}

// Potential reproduces the Section 2 potential argument: the enumerated
// initial potential matches equation (9) and yields the Section 7 lower
// bound.
func (h Harness) Potential(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b := cfg.LgN(), cfg.LgB()
	t := &Table{
		ID:      "E9 (Section 2 potential)",
		Title:   fmt.Sprintf("potential function on %v", cfg),
		Columns: []string{"rank gamma", "Phi(0) enumerated", "N(lgB-rank) (eq 9)", "Phi(t)=NlgB", "refined LB", "within"},
	}
	maxG := b
	if n-b < maxG {
		maxG = n - b
	}
	for g := 0; g <= maxG; g++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a := gf2.RandomNonsingularWithGamma(rng, n, b, g)
		p := perm.MustNew(a, gf2.RandomVec(rng, n))
		direct := bounds.InitialPotential(cfg, p)
		closed := bounds.InitialPotentialClosedForm(cfg, p)
		final := bounds.FinalPotential(cfg)
		rlb := bounds.PotentialLowerBound(cfg, p)
		ok := abs(direct-closed) < 1e-6
		t.AddRow(itoa(g), ftoa(direct), ftoa(closed), ftoa(final), ftoa(rlb), passFail(ok))
	}
	return t, nil
}

// TransposeShapes reproduces the Vitter-Shriver transposition comparison:
// the BMMC algorithm's measured cost tracks the transposition bound across
// matrix shapes.
func (h Harness) TransposeShapes(ctx context.Context, cfg pdm.Config, _ int64) (*Table, error) {
	n := cfg.LgN()
	t := &Table{
		ID:      "E11 (transposition)",
		Title:   fmt.Sprintf("R x S matrix transposes on %v", cfg),
		Columns: []string{"R", "S", "measured I/Os", "VS transpose bound", "UB (Thm 21)", "within"},
		Notes:   []string{"VS bound: (N/BD)(1+lg min(B,R,S,N/B)/lg(M/B)); measured must stay within the Theorem 21 guarantee"},
	}
	for lgR := 1; lgR < n; lgR++ {
		lgS := n - lgR
		p := perm.Transpose(lgR, lgS)
		res, err := h.run(ctx, cfg, p, h.factored)
		if err != nil {
			return nil, err
		}
		vs := bounds.TransposeBound(cfg, lgR, lgS)
		ub := bounds.UpperBound(cfg, p.RankGamma(cfg.LgB()))
		t.AddRow(itoa(1<<uint(lgR)), itoa(1<<uint(lgS)), itoa(res.ParallelIOs), ftoa(vs), itoa(ub),
			passFail(res.ParallelIOs <= ub))
	}
	return t, nil
}

// Scaling verifies the N/BD scaling of the algorithm: the same permutation
// embedded into successively larger address spaces (identity on the new
// high bits, preserving rank gamma and the full pass structure) costs
// exactly proportionally more I/Os.
func (h Harness) Scaling(ctx context.Context, base pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:      "E5b (N/BD scaling)",
		Title:   "I/O scaling with N for one embedded permutation",
		Columns: []string{"config", "rank gamma", "measured I/Os", "I/Os per stripe", "passes"},
		Notes:   []string{"the base permutation is embedded into each larger address space, so the pass count is invariant and I/Os scale exactly with N/BD"},
	}
	g := base.LgB() / 2
	baseP := perm.MustNew(
		gf2.RandomNonsingularWithGamma(rng, base.LgN(), base.LgB(), g),
		gf2.RandomVec(rng, base.LgN()))
	for scale := 0; scale < 4; scale++ {
		cfg := base
		cfg.N = base.N << uint(scale)
		p, err := baseP.Embed(cfg.LgN())
		if err != nil {
			return nil, err
		}
		res, err := h.run(ctx, cfg, p, h.factored)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.String(), itoa(g), itoa(res.ParallelIOs),
			fmt.Sprintf("%.2f", float64(res.ParallelIOs)/float64(cfg.Stripes())), itoa(res.Passes))
	}
	return t, nil
}

// Ablation measures what Theorem 17's pass grouping buys: the same
// factorization executed with every factor as its own pass (2g+2 passes)
// versus the grouped MLD passes (g+1).
func (h Harness) Ablation(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b := cfg.LgN(), cfg.LgB()
	t := &Table{
		ID:      "E13 (ablation: Theorem 17 grouping)",
		Title:   fmt.Sprintf("grouped vs ungrouped factor execution on %v", cfg),
		Columns: []string{"rank gamma", "grouped passes", "grouped I/Os", "ungrouped passes", "ungrouped I/Os", "saving", "within"},
		Notes:   []string{"ungrouped runs P^-1, S_i^-1, E_i^-1 and F as separate passes; grouping merges each E^-1 S^-1 (P^-1) into one MLD pass"},
	}
	maxG := b
	if n-b < maxG {
		maxG = n - b
	}
	for g := 1; g <= maxG; g++ {
		a := gf2.RandomNonsingularWithGamma(rng, n, b, g)
		p := perm.MustNew(a, gf2.RandomVec(rng, n))
		if p.IsMRC(cfg.LgM()) {
			continue
		}
		grouped, err := h.run(ctx, cfg, p, h.factored)
		if err != nil {
			return nil, err
		}
		ungrouped, err := h.run(ctx, cfg, p, ungrouped)
		if err != nil {
			return nil, err
		}
		saving := float64(ungrouped.ParallelIOs-grouped.ParallelIOs) / float64(ungrouped.ParallelIOs)
		t.AddRow(itoa(g), itoa(grouped.Passes), itoa(grouped.ParallelIOs),
			itoa(ungrouped.Passes), itoa(ungrouped.ParallelIOs),
			fmt.Sprintf("%.0f%%", 100*saving),
			passFail(grouped.ParallelIOs < ungrouped.ParallelIOs))
	}
	return t, nil
}

// InverseOnePass demonstrates the Section 7 extension implemented by this
// library: inverses of MLD permutations also run in a single pass, using
// independent reads and striped writes.
func (h Harness) InverseOnePass(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	t := &Table{
		ID:      "E14 (Section 7: inverse one-pass)",
		Title:   fmt.Sprintf("inverses of MLD permutations in one pass on %v", cfg),
		Columns: []string{"instance", "auto passes", "measured I/Os", "2N/BD", "within"},
	}
	for trial := 0; trial < 4; trial++ {
		mld := perm.MustNew(gf2.RandomMLD(rng, n, b, m), gf2.RandomVec(rng, n))
		inv := mld.Inverse()
		res, err := h.run(ctx, cfg, inv, auto)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("inverse MLD #%d", trial), itoa(res.Passes), itoa(res.ParallelIOs),
			itoa(cfg.PassIOs()), passFail(res.ParallelIOs == cfg.PassIOs()))
	}
	return t, nil
}

// Lemma9Table reproduces the universality experiment: even a BMMC
// permutation differing from the identity in a single matrix entry moves at
// least half of all records.
func (h Harness) Lemma9Table(ctx context.Context, cfg pdm.Config, _ int64) (*Table, error) {
	n := cfg.LgN()
	t := &Table{
		ID:      "E12 (Lemma 9)",
		Title:   fmt.Sprintf("fixed points of near-identity permutations on %v", cfg),
		Columns: []string{"instance", "fixed points", "N/2", "within"},
	}
	// One off-diagonal bit.
	a := gf2.Identity(n)
	a.Set(0, 1, 1)
	single := perm.MustNew(a, 0)
	// Complement only.
	comp := perm.Hypercube(n, 1)
	for _, e := range []struct {
		name string
		p    perm.BMMC
	}{{"one off-diagonal entry", single}, {"single-bit complement", comp}} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fp := e.p.FixedPoints()
		t.AddRow(e.name, fmt.Sprintf("%d", fp), itoa(cfg.N/2), passFail(fp <= uint64(cfg.N)/2))
	}
	return t, nil
}

// PipelineSpeed measures what the pipelined pass runner buys in wall-clock
// time: the same maximal-rank BMMC permutation is executed on file-backed
// disks first sequentially (one goroutine, serial disk dispatch) and then
// pipelined (three stages: a prefetch reader, the scatter and a
// write-behind writer, each load double-buffered, plus concurrent
// dispatch, one goroutine per transfer, when the harness enables it). The
// model's cost is identical in both modes — the PASS column asserts that
// the parallel-I/O counts match exactly and that both runs produced the
// correct layout — so the only thing allowed to differ is elapsed time.
func (h Harness) PipelineSpeed(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b := cfg.LgN(), cfg.LgB()
	g := b
	if n-b < g {
		g = n - b
	}
	p := perm.MustNew(gf2.RandomNonsingularWithGamma(rng, n, b, g), gf2.RandomVec(rng, n))
	plan, err := factor.Factorize(p, b, cfg.LgM())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E15 (pipelined pass runner)",
		Title:   fmt.Sprintf("sequential vs pipelined execution, file-backed, rank gamma %d on %v", g, cfg),
		Columns: []string{"mode", "wall-clock", "parallel I/Os", "passes", "speedup", "within"},
		Notes: []string{
			"both modes run the identical factored BMMC workload on file-backed disks; I/O counts must match exactly",
		},
	}
	// The pipelined mode additionally honors the harness-wide ConcurrentIO
	// setting (per-transfer goroutine dispatch pays off with many cores or real
	// spindle latency; on a single core it is overhead).
	modes := []struct {
		name       string
		opt        engine.Options
		concurrent bool
	}{
		{"sequential", engine.Options{Pipeline: false}, false},
		{"pipelined", engine.DefaultOptions(), h.ConcurrentIO},
	}
	var elapsed [2]time.Duration
	var ios [2]int
	var passes [2]int
	for i, mode := range modes {
		dir, err := os.MkdirTemp("", "bmmc-pipeline-")
		if err != nil {
			return nil, err
		}
		// One untimed warmup plus best-of-3 timed runs keeps the one-shot
		// comparison from being dominated by cold caches and scheduler
		// noise.
		run := func(timed bool) error {
			sys, err := pdm.NewSystem(cfg, pdm.FileBackend(dir))
			if err != nil {
				return err
			}
			defer sys.Close()
			sys.SetConcurrent(mode.concurrent)
			if err := engine.LoadSequential(sys); err != nil {
				return err
			}
			start := time.Now()
			res, err := engine.RunPlan(ctx, sys, plan, mode.opt)
			if err != nil {
				return err
			}
			if d := time.Since(start); timed && (elapsed[i] == 0 || d < elapsed[i]) {
				elapsed[i] = d
			}
			ios[i] = res.ParallelIOs
			passes[i] = res.Passes
			return engine.VerifyBMMC(sys, sys.Source(), p)
		}
		for rep := 0; rep < 4 && err == nil; rep++ {
			err = run(rep > 0)
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("%s mode: %w", mode.name, err)
		}
	}
	for i, mode := range modes {
		speedup := "1.00x"
		if i > 0 && elapsed[i] > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(elapsed[0])/float64(elapsed[i]))
		}
		t.AddRow(mode.name,
			fmt.Sprintf("%.1fms", float64(elapsed[i].Microseconds())/1000),
			itoa(ios[i]), itoa(passes[i]), speedup,
			passFail(ios[i] == ios[0] && passes[i] == passes[0]))
	}
	return t, nil
}

// randomNonMRCMLD draws MLD permutations until one falls outside MRC —
// the family whose factored plan fusion collapses. Requires m > b; the
// degenerate all-zero erasure block has probability 2^-((n-m)(m-b)), so
// the retry bound is never hit in practice, and the last draw is still a
// valid (merely less interesting) MLD instance if it ever is.
func randomNonMRCMLD(rng *rand.Rand, n, b, m int) perm.BMMC {
	var p perm.BMMC
	for try := 0; try < 100; try++ {
		p = perm.MustNew(gf2.RandomMLD(rng, n, b, m), gf2.RandomVec(rng, n))
		if !p.IsMRC(m) {
			break
		}
	}
	return p
}

// Fusion measures what the plan-fusion layer buys on the permutation
// catalog: each instance is factored by the Section 5 algorithm, the pass
// list is re-segmented by factor.Fuse, and both plans are executed on fresh
// systems. The fused plan must never use more passes, must produce the
// byte-identical layout, and for the one-pass families the greedy factoring
// over-splits (MLD and inverse-MLD permutations, which Factorize has no
// fast path for, plus a fraction of random BMMC matrices) it strictly
// reduces the measured parallel-I/O count.
func (h Harness) Fusion(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	t := &Table{
		ID:      "E16 (plan fusion)",
		Title:   fmt.Sprintf("fused vs unfused factored plans on %v", cfg),
		Columns: []string{"instance", "unfused passes", "fused passes", "unfused I/Os", "fused I/Os", "saved", "within"},
		Notes: []string{
			"fused passes compose adjacent GF(2) factors that are still one-pass (MRC/MLD/inverse-MLD) class members",
			"BPC instances never fuse (their MLD members are already MRC), so the catalog rows pin fusion's no-regression side",
		},
	}
	type entry struct {
		name string
		p    perm.BMMC
	}
	entries := []entry{
		{"bit reversal", perm.BitReversal(n)},
		{"transpose (square)", perm.Transpose(n/2, n-n/2)},
		{"random BPC", perm.BMMC{A: gf2.RandomPermutationMatrix(rng, n)}},
	}
	// MLD \ MRC is empty at lg(M/B) = 0, so the strict-win rows only exist
	// when the geometry has room for an erasure block.
	if m > b {
		mld := randomNonMRCMLD(rng, n, b, m)
		entries = append(entries,
			entry{"random MLD", mld},
			entry{"inverse MLD", randomNonMRCMLD(rng, n, b, m).Inverse()})
	}
	entries = append(entries,
		entry{"random BMMC", perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))},
		entry{"random BMMC #2", perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))})
	maxG := b
	if n-b < maxG {
		maxG = n - b
	}
	for g := 1; g <= maxG; g++ {
		entries = append(entries, entry{fmt.Sprintf("random rank %d", g),
			perm.MustNew(gf2.RandomNonsingularWithGamma(rng, n, b, g), gf2.RandomVec(rng, n))})
	}
	for _, e := range entries {
		plan, err := factor.Factorize(e.p, b, m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		fused := factor.Fuse(plan, b, m)
		if !fused.Composed(n).Equal(e.p) {
			return nil, fmt.Errorf("%s: fused plan composes to a different permutation", e.name)
		}
		exec := func(pl *factor.Plan) (int, error) {
			sys, err := h.newSystem(cfg)
			if err != nil {
				return 0, err
			}
			defer sys.Close()
			res, err := engine.RunPlan(ctx, sys, pl, h.Exec)
			if err != nil {
				return 0, err
			}
			if err := engine.VerifyBMMC(sys, sys.Source(), e.p); err != nil {
				return 0, fmt.Errorf("%s: %w", e.name, err)
			}
			return res.ParallelIOs, nil
		}
		unfusedIOs, err := exec(plan)
		if err != nil {
			return nil, err
		}
		fusedIOs, err := exec(fused)
		if err != nil {
			return nil, err
		}
		saved := "-"
		if unfusedIOs > fusedIOs {
			saved = fmt.Sprintf("%.0f%%", 100*float64(unfusedIOs-fusedIOs)/float64(unfusedIOs))
		}
		t.AddRow(e.name, itoa(plan.PassCount()), itoa(fused.PassCount()),
			itoa(unfusedIOs), itoa(fusedIOs), saved,
			passFail(fused.PassCount() <= plan.PassCount() && fusedIOs <= unfusedIOs))
	}
	return t, nil
}

// PlanReuse measures what the core plan cache buys: the same factored
// permutation is permuted twice on one Dataset through one Engine sized by
// the harness's PlanCacheSize, and the second call
// must be served from the cache — zero re-factorizations — while producing
// the identical pass structure. The planning-only cost (factorize + fuse,
// no I/O) is timed directly for the note.
func (h Harness) PlanReuse(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	t := &Table{
		ID:      "E17 (plan cache)",
		Title:   fmt.Sprintf("plan-cache reuse across repeated permutations on %v", cfg),
		Columns: []string{"call", "instance", "plan cached", "passes", "parallel I/Os", "within"},
	}
	p := perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
	planStart := time.Now()
	plan, err := factor.Factorize(p, b, m)
	if err != nil {
		return nil, err
	}
	factor.Fuse(plan, b, m)
	planCost := time.Since(planStart)

	eng := core.NewEngine(core.WithPlanCache(h.PlanCacheSize))
	ds, err := core.CreateDataset(cfg)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	// With the cache disabled (-cache 0) every call plans from scratch and
	// the expected "plan cached" column flips to all-false.
	caching := h.PlanCacheSize > 0
	jobs := []struct {
		name string
		p    perm.BMMC
		hit  bool
	}{
		{"random BMMC", p, false},
		{"random BMMC", p, caching},
		{"bit reversal", perm.BitReversal(n), false},
		{"bit reversal", perm.BitReversal(n), caching},
	}
	var prev *core.Report
	for i, job := range jobs {
		rep, err := eng.Permute(ctx, ds, job.p)
		if err != nil {
			return nil, err
		}
		ok := rep.PlanCached == job.hit
		if i%2 == 1 && prev != nil {
			ok = ok && rep.Passes == prev.Passes && rep.ParallelIOs == prev.ParallelIOs
		}
		t.AddRow(itoa(i+1), job.name, fmt.Sprintf("%v", rep.PlanCached),
			itoa(rep.Passes), itoa(rep.ParallelIOs), passFail(ok))
		prev = rep
	}
	stats := eng.CacheStats()
	t.Notes = append(t.Notes,
		fmt.Sprintf("planning (factorize+fuse, no I/O) costs %.2fms once; %s", float64(planCost.Microseconds())/1000, stats),
	)
	wantHits := 0
	if caching {
		wantHits = 2
	}
	if stats.Hits != wantHits {
		return nil, fmt.Errorf("plancache: expected %d hits, got %+v", wantHits, stats)
	}
	return t, nil
}

// BackendSpeed (E18) compares the storage backends on the
// identical factored workload: RAM, single-directory files, and a sharded
// two-directory layout. The parallel-I/O counts — the model's only cost —
// must match across all three (the PASS column asserts it); wall-clock
// shows what each backend's real I/O path costs.
func (h Harness) BackendSpeed(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, b := cfg.LgN(), cfg.LgB()
	g := b
	if n-b < g {
		g = n - b
	}
	p := perm.MustNew(gf2.RandomNonsingularWithGamma(rng, n, b, g), gf2.RandomVec(rng, n))
	plan, err := factor.Factorize(p, b, cfg.LgM())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E18 (storage backends)",
		Title:   fmt.Sprintf("mem vs file vs sharded backends, rank gamma %d on %v", g, cfg),
		Columns: []string{"backend", "wall-clock", "parallel I/Os", "passes", "within"},
		Notes: []string{
			"identical factored BMMC workload on every backend; the model's I/O counts must match exactly",
		},
	}
	type mode struct {
		name    string
		backend func(dirs []string) pdm.Backend
		ndirs   int
	}
	modes := []mode{
		{"mem", func([]string) pdm.Backend { return pdm.MemBackend() }, 0},
		{"file", func(dirs []string) pdm.Backend { return pdm.FileBackend(dirs[0]) }, 1},
		{"sharded x2", func(dirs []string) pdm.Backend { return pdm.ShardedFileBackend(dirs...) }, 2},
	}
	var ios, passes [3]int
	var elapsed [3]time.Duration
	for i, mode := range modes {
		dirs := make([]string, mode.ndirs)
		var err error
		for j := range dirs {
			if dirs[j], err = os.MkdirTemp("", "bmmc-backend-"); err != nil {
				return nil, err
			}
		}
		run := func(timed bool) error {
			sys, err := pdm.NewSystem(cfg, mode.backend(dirs))
			if err != nil {
				return err
			}
			defer sys.Close()
			sys.SetConcurrent(h.ConcurrentIO)
			if err := engine.LoadSequential(sys); err != nil {
				return err
			}
			start := time.Now()
			res, err := engine.RunPlan(ctx, sys, plan, h.Exec)
			if err != nil {
				return err
			}
			if d := time.Since(start); timed && (elapsed[i] == 0 || d < elapsed[i]) {
				elapsed[i] = d
			}
			ios[i] = res.ParallelIOs
			passes[i] = res.Passes
			if err := sys.Sync(); err != nil {
				return err
			}
			return engine.VerifyBMMC(sys, sys.Source(), p)
		}
		for rep := 0; rep < 4 && err == nil; rep++ {
			err = run(rep > 0)
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
		if err != nil {
			return nil, fmt.Errorf("%s backend: %w", mode.name, err)
		}
	}
	for i, mode := range modes {
		t.AddRow(mode.name,
			fmt.Sprintf("%.1fms", float64(elapsed[i].Microseconds())/1000),
			itoa(ios[i]), itoa(passes[i]),
			passFail(ios[i] == ios[0] && passes[i] == passes[0]))
	}
	return t, nil
}

// Chain (E19) measures what the Dataset/Engine split buys multi-step
// pipelines: a two-step permutation chain run on one dataset — upload once
// onto one file-backed Dataset, execute both steps back-to-back, download
// once — against the per-job flow that provisions fresh storage per job and
// re-streams the records between steps (download step 1, upload into step
// 2). Parallel-I/O counts are identical by construction (the model charges
// only counted I/O); the chained flow moves 2N records over the data plane
// instead of 4N and skips a storage provisioning, which is the wall-clock
// gap the table reports.
func (h Harness) Chain(ctx context.Context, cfg pdm.Config, seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n := cfg.LgN()
	steps := []perm.BMMC{perm.BitReversal(n), perm.Transpose(n/2, n-n/2)}
	t := &Table{
		ID:      "E19 (chained jobs)",
		Title:   fmt.Sprintf("2-step chain via one dataset vs re-upload per job on %v", cfg),
		Columns: []string{"mode", "wall-clock", "records streamed", "datasets", "parallel I/Os", "within"},
		Notes: []string{
			"both modes run bit-reversal then transpose on file-backed storage with identical records and I/O counts",
			"chained: load once, execute back-to-back, dump once; re-upload: fresh dataset + dump + load between steps",
		},
	}

	// One shared input, so both modes permute identical records.
	input := make([]pdm.Record, cfg.N)
	for i := range input {
		input[i] = pdm.Record{Key: rng.Uint64(), Tag: uint64(i)}
	}
	input[0].Key = 0 // pin one deterministic record for the final diff
	encode := func(recs []pdm.Record) []byte {
		buf := make([]byte, len(recs)*pdm.RecordBytes)
		for i, r := range recs {
			r.Encode(buf[i*pdm.RecordBytes:])
		}
		return buf
	}
	wire := encode(input)
	eng := core.NewEngine()

	newDataset := func() (*core.Dataset, string, error) {
		dir, err := os.MkdirTemp("", "bmmc-chain-")
		if err != nil {
			return nil, "", err
		}
		ds, err := core.CreateDataset(cfg, core.WithBackend(pdm.FileBackend(dir)))
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
		return ds, dir, nil
	}

	// Mode 1 — chained on one dataset: upload once, two executes, download
	// once. 2N records cross the data plane.
	startChained := time.Now()
	chainedOut, chainedIOs, err := func() ([]byte, int, error) {
		ds, dir, err := newDataset()
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		defer ds.Close()
		if err := ds.Load(ctx, bytes.NewReader(wire)); err != nil {
			return nil, 0, err
		}
		for _, p := range steps {
			if _, err := eng.Permute(ctx, ds, p); err != nil {
				return nil, 0, err
			}
		}
		var out bytes.Buffer
		if err := ds.Dump(ctx, &out); err != nil {
			return nil, 0, err
		}
		return out.Bytes(), ds.Stats().ParallelIOs(), nil
	}()
	if err != nil {
		return nil, err
	}
	chainedElapsed := time.Since(startChained)

	// Mode 2 — re-upload per job: each step gets fresh storage and the
	// records are streamed out of one job and into the next. 4N records
	// cross the data plane and a second dataset is provisioned.
	var reupOut []byte
	var reupIOs int
	startReup := time.Now()
	cur := wire
	for _, p := range steps {
		err := func() error {
			ds, dir, err := newDataset()
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			defer ds.Close()
			if err := ds.Load(ctx, bytes.NewReader(cur)); err != nil {
				return err
			}
			if _, err := eng.Permute(ctx, ds, p); err != nil {
				return err
			}
			var out bytes.Buffer
			if err := ds.Dump(ctx, &out); err != nil {
				return err
			}
			cur = out.Bytes()
			reupIOs += ds.Stats().ParallelIOs()
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	reupOut = cur
	reupElapsed := time.Since(startReup)

	identical := bytes.Equal(chainedOut, reupOut)
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }
	t.AddRow("chained (one dataset)", ms(chainedElapsed), itoa(2*cfg.N), "1", itoa(chainedIOs),
		passFail(identical && chainedIOs == reupIOs))
	t.AddRow("re-upload per job", ms(reupElapsed), itoa(4*cfg.N), "2", itoa(reupIOs),
		passFail(identical))
	return t, nil
}

// Names lists every experiment in execution order.
func Names() []string {
	return []string{
		"table1", "tightbounds", "crossover", "mld", "detect", "potential",
		"transpose", "scaling", "lemma9", "ablation", "inverse", "pipeline",
		"fusion", "plancache", "backend", "chain",
	}
}

// All runs every experiment generator on the given configuration. ctx
// cancellation aborts between memoryloads of whichever experiment is
// running.
func (h Harness) All(ctx context.Context, cfg pdm.Config, seed int64) ([]*Table, error) {
	var out []*Table
	for _, name := range Names() {
		tbl, err := h.ByName(name)(ctx, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", name, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// ByName returns the generator with the given name bound to h, or nil.
func (h Harness) ByName(name string) func(context.Context, pdm.Config, int64) (*Table, error) {
	switch name {
	case "table1":
		return h.Table1
	case "tightbounds":
		return h.TightBounds
	case "crossover":
		return h.Crossover
	case "mld":
		return h.MLDOnePass
	case "detect":
		return h.Detection
	case "potential":
		return h.Potential
	case "transpose":
		return h.TransposeShapes
	case "scaling":
		return h.Scaling
	case "lemma9":
		return h.Lemma9Table
	case "ablation":
		return h.Ablation
	case "inverse":
		return h.InverseOnePass
	case "pipeline":
		return h.PipelineSpeed
	case "fusion":
		return h.Fusion
	case "plancache":
		return h.PlanReuse
	case "backend":
		return h.BackendSpeed
	case "chain":
		return h.Chain
	default:
		return nil
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
