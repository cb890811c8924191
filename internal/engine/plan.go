package engine

import (
	"context"
	"fmt"

	"repro/internal/factor"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Result summarizes one permutation run: the pass structure and the exact
// parallel-I/O cost measured by the disk system.
type Result struct {
	Passes      int // one-pass permutations performed
	ParallelIOs int // parallel I/Os consumed by this run
}

// RunPlan executes a plan: each pass is dispatched to the one-pass
// executor its kind names (MRC, MLD, or inverse-MLD), ping-ponging between
// the two portions. A nil plan is the identity and costs nothing. The
// caller owns the plan — factor.Dispatch, factor.Factorize, an optional
// factor.Fuse, or a plan cache built it — so repeated permutations never
// pay for re-factorization. The measured cost of a factored plan is at
// most 2N/BD * (ceil(rank gamma / lg(M/B)) + 2) parallel I/Os (Theorem 21).
//
// ctx is checked between memoryloads; cancellation mid-pass leaves the
// portion roles unswapped, so the stored records are exactly the state
// after the last completed pass.
func RunPlan(ctx context.Context, sys *pdm.System, plan *factor.Plan, opt Options) (*Result, error) {
	if plan == nil {
		return &Result{}, nil
	}
	before := sys.Stats().ParallelIOs()
	for i, pass := range plan.Passes {
		popt := opt
		if opt.Progress != nil {
			i, base := i, opt.Progress
			popt.Progress = func(ev PassEvent) {
				ev.Pass, ev.Passes = i+1, len(plan.Passes)
				base(ev)
			}
		}
		var err error
		switch pass.Kind {
		case perm.ClassMRC:
			err = RunMRCPass(ctx, sys, pass.Perm, popt)
		case perm.ClassMLD:
			err = RunMLDPass(ctx, sys, pass.Perm, popt)
		case perm.ClassInvMLD:
			err = RunMLDInversePass(ctx, sys, pass.Perm, popt)
		default:
			err = fmt.Errorf("engine: pass %d has unexpected class %v", i, pass.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: pass %d/%d: %w", i+1, len(plan.Passes), err)
		}
	}
	return &Result{
		Passes:      plan.PassCount(),
		ParallelIOs: sys.Stats().ParallelIOs() - before,
	}, nil
}
