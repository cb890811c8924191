package factor

import "repro/internal/perm"

// Dispatch is the paper's execution policy for the BMMC permutation p on
// block size 2^b and memory size 2^m, and the only place it is encoded:
// the identity costs nothing (nil plan); MRC, MLD and inverse-MLD
// permutations run in one pass of their own class; anything else is
// factored into g+1 passes (Theorem 21) and, when fuse is set, re-segmented
// by Fuse. It returns the class p is dispatched as — ClassBMMC for every
// factored permutation — together with the plan to execute.
func Dispatch(p perm.BMMC, b, m int, fuse bool) (perm.Class, *Plan, error) {
	if class, ok := p.OnePassClass(b, m); ok {
		if class == perm.ClassIdentity {
			return class, nil, nil
		}
		return class, &Plan{Passes: []Pass{{Perm: p, Kind: class}}}, nil
	}
	plan, err := Factorize(p, b, m)
	if err != nil {
		return perm.ClassBMMC, nil, err
	}
	if fuse {
		plan = Fuse(plan, b, m)
	}
	return perm.ClassBMMC, plan, nil
}
