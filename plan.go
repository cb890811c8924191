package bmmc

import (
	"fmt"
	"strings"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/factor"
)

// Plan is a first-class execution plan for one permutation on one machine
// geometry: the dispatched class, the (possibly fused) one-pass sequence,
// and the paper's cost bounds, as an inspectable, immutable value.
//
// Plans separate the paper's two phases in the public API: Engine.Plan
// pays for classification and GF(2) factorization once, Engine.Execute
// runs the prepared passes as many times as the caller likes — on any
// Dataset with the same Config, through this Engine or any other — with
// records, Stats and Reports identical to Engine.Permute, which is exactly
// Plan followed by Execute.
//
//	pl, err := eng.Plan(cfg, bmmc.BitReversal(cfg.LgN()))
//	fmt.Println(pl)                     // passes, exact cost, Thm 3 / Thm 21 bounds
//	for _, pass := range pl.Passes()    // inspect each one-pass permutation
//	    ...
//	rep, err := eng.Execute(ctx, pl, ds) // run it; plan again never
type Plan struct {
	perm   Permutation
	cfg    Config
	class  Class
	fplan  *factor.Plan // nil only for the identity
	cached bool
}

// PlanPass is one one-pass permutation within a Plan: the permutation to
// apply and the class (MRC, MLD, or inverse-MLD) whose executor runs it.
type PlanPass = factor.Pass

// PassEvent is one progress report from a running permutation: memoryload
// Load of Loads within pass Pass of Passes has completed (Load 0 marks a
// pass starting). Kind names the pass algorithm ("MRC", "MLD", "MLD^-1",
// "sort", "naive"). IOs counts the parallel I/Os of the completed load, so
// a pass's events sum to its cost; a pass-start event carries 0.
type PassEvent = engine.PassEvent

// PlanFor classifies and (for full BMMC permutations) factorizes p for an
// arbitrary valid geometry without an Engine: pure GF(2) planning with no
// plan cache, no disk system and no I/O. The returned Plan is identical to
// what Engine.Plan builds on that geometry (modulo plan-cache metadata)
// and may be executed on any Dataset with the same Config. Services and
// tools use it to quote a permutation's class, pass structure, and cost
// bounds before any storage exists.
func PlanFor(cfg Config, p Permutation, fuse bool) (*Plan, error) {
	return plan(nil, cfg, p, fuse)
}

// plan is the one planning path behind Engine.Plan and PlanFor: validate
// the geometry and the permutation's width, consult the cache (nil: none),
// and otherwise run factor.Dispatch and remember the result.
func plan(cache *planCache, cfg Config, bp Permutation, fuse bool) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The cache key deliberately omits n = lg N (the pass structure depends
	// only on the permutation and lg B / lg M), so the width check must
	// happen before the lookup: a hit would otherwise smuggle a wrong-sized
	// permutation onto this geometry.
	if err := checkWidth(cfg, bp); err != nil {
		return nil, err
	}
	key := planKey(bp, cfg, fuse)
	if cp := cache.get(key); cp != nil {
		return &Plan{perm: bp, cfg: cfg, class: cp.class, fplan: cp.plan, cached: true}, nil
	}
	class, fplan, err := factor.Dispatch(bp, cfg.LgB(), cfg.LgM(), fuse)
	if err != nil {
		return nil, err
	}
	cache.put(key, &cachedPlan{class: class, plan: fplan})
	return &Plan{perm: bp, cfg: cfg, class: class, fplan: fplan}, nil
}

// checkWidth rejects a permutation whose address width is not lg N.
func checkWidth(cfg Config, bp Permutation) error {
	if bp.Bits() != cfg.LgN() {
		return fmt.Errorf("bmmc: permutation on %d-bit addresses, system has n=%d", bp.Bits(), cfg.LgN())
	}
	return nil
}

// Permutation returns the permutation the plan performs.
func (pl *Plan) Permutation() Permutation { return pl.perm }

// Geometry returns the machine configuration the plan was built for; a
// plan only executes on Datasets with this exact Config.
func (pl *Plan) Geometry() Config { return pl.cfg }

// Class returns the class the permutation was dispatched as (identity,
// MRC, MLD, inverse-MLD, or full BMMC).
func (pl *Plan) Class() Class { return pl.class }

// Passes returns the one-pass permutations the plan executes, in order.
// The identity returns an empty slice. The slice is a copy; mutating it
// does not affect the plan.
func (pl *Plan) Passes() []PlanPass {
	if pl.fplan == nil {
		return nil
	}
	return append([]PlanPass(nil), pl.fplan.Passes...)
}

// PassCount returns the number of one-pass permutations the plan performs
// (0 for the identity).
func (pl *Plan) PassCount() int {
	if pl.fplan == nil {
		return 0
	}
	return pl.fplan.PassCount()
}

// FusedFrom returns the pass count before fusion, or 0 if the plan never
// went through the fusion stage.
func (pl *Plan) FusedFrom() int {
	if pl.fplan == nil {
		return 0
	}
	return pl.fplan.FusedFrom
}

// Cached reports whether planning was served from the Engine's plan cache
// rather than paying for classification and factorization.
func (pl *Plan) Cached() bool { return pl.cached }

// RankGamma returns rank A_{b..n-1,0..b-1}, the quantity the paper's
// bounds are stated in.
func (pl *Plan) RankGamma() int { return pl.perm.RankGamma(pl.cfg.LgB()) }

// CostIOs returns the exact parallel-I/O count executing the plan will
// measure: 2N/BD per pass.
func (pl *Plan) CostIOs() int { return pl.PassCount() * pl.cfg.PassIOs() }

// LowerBoundIOs returns the Theorem 3 lower bound
// (N/BD)(1 + rank(gamma)/lg(M/B)) for the plan's permutation.
func (pl *Plan) LowerBoundIOs() float64 { return bounds.LowerBound(pl.cfg, pl.RankGamma()) }

// UpperBoundIOs returns the Theorem 21 guarantee
// (2N/BD)(ceil(rank(gamma)/lg(M/B)) + 2); CostIOs never exceeds it.
func (pl *Plan) UpperBoundIOs() int { return bounds.UpperBound(pl.cfg, pl.RankGamma()) }

// String renders the plan in one line: class, pass structure, and how the
// exact cost sits between the paper's bounds.
func (pl *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan[%s]: %d passes, %d parallel I/Os (LB %.0f, UB %d)",
		pl.class, pl.PassCount(), pl.CostIOs(), pl.LowerBoundIOs(), pl.UpperBoundIOs())
	if ff := pl.FusedFrom(); ff > pl.PassCount() {
		fmt.Fprintf(&sb, " [fused from %d passes]", ff)
	}
	if pl.cached {
		sb.WriteString(" [cached]")
	}
	return sb.String()
}

// Describe renders the full pass list (kinds and complements) beneath the
// one-line summary, for diagnostics and the bmmcplan tool.
func (pl *Plan) Describe() string {
	if pl.fplan == nil {
		return pl.String() + "\n  (identity: nothing to do)"
	}
	return pl.String() + "\n" + pl.fplan.String()
}
