package bmmc

import (
	"repro/internal/core"
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
// Dataset with the same Config — with records, Stats and Reports identical
// to Engine.Permute, which is exactly Plan followed by Execute.
//
//	pl, err := eng.Plan(cfg, bmmc.BitReversal(cfg.LgN()))
//	fmt.Println(pl)                     // passes, exact cost, Thm 3 / Thm 21 bounds
//	for _, pass := range pl.Passes()    // inspect each one-pass permutation
//	    ...
//	rep, err := eng.Execute(ctx, pl, ds) // run it; plan again never
type Plan = core.Plan

// PlanFor classifies and (for full BMMC permutations) factorizes p for an
// arbitrary valid geometry without an Engine: pure GF(2) planning with no
// plan cache, no disk system and no I/O. The returned Plan is identical to
// what Engine.Plan builds on that geometry (modulo plan-cache metadata)
// and may be executed on any Dataset with the same Config. Tools use it to
// quote a permutation's class, pass structure, and cost bounds before any
// storage exists.
func PlanFor(cfg Config, p Permutation, fuse bool) (*Plan, error) {
	return core.PlanFor(cfg, p, fuse)
}

// PlanPass is one one-pass permutation within a Plan: the permutation to
// apply and the class (MRC, MLD, or inverse-MLD) whose executor runs it.
type PlanPass = factor.Pass

// PassEvent is one progress report from a running permutation: memoryload
// Load of Loads within pass Pass of Passes has completed (Load 0 marks a
// pass starting). Kind names the pass algorithm ("MRC", "MLD", "MLD^-1",
// "sort", "naive").
type PassEvent = engine.PassEvent

// WithProgress installs a callback receiving a PassEvent at every pass
// start and after every completed memoryload, for long-run reporting and
// instrumentation. A completed-memoryload event runs on the pass's writer
// goroutine once that memoryload's writes are counted and before any later
// one's; events arrive in order and never overlap. The callback must be cheap, and it observes execution
// without altering results or I/O counts.
func WithProgress(fn func(PassEvent)) Option { return core.WithProgress(fn) }
