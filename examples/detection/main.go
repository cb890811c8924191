// Run-time BMMC detection (Section 6): a permutation arrives only as a
// vector of N target addresses — the form a data-parallel runtime sees —
// and the library decides in N/BD + ceil((lg(N/B)+1)/D) parallel reads
// whether the cheap BMMC algorithm applies, recovering the characteristic
// matrix and complement vector when it does.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	bmmc "repro"
)

func main() {
	cfg := bmmc.Config{N: 1 << 14, D: 8, B: 8, M: 1 << 10}
	n := cfg.LgN()
	fmt.Printf("machine: %v\n", cfg)
	fmt.Printf("detection budget: %d parallel reads\n\n", bmmc.DetectionBoundReads(cfg))

	// Case 1: a "mystery" vector that is secretly a shifted Gray code
	// composed with a transpose — BMMC, but not obviously so.
	secret := bmmc.GrayCode(n).Compose(bmmc.Transpose(7, 7))
	det, err := bmmc.DetectTargets(cfg, secret.Apply)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mystery vector #1: BMMC=%v, reads=%d (candidate %d + verify %d)\n",
		det.IsBMMC, det.ParallelReads(), det.CandidateReads, det.VerifyReads)
	if !det.IsBMMC || !det.Perm.Equal(secret) {
		log.Fatal("detector failed to recover the hidden permutation")
	}
	fmt.Println("  recovered the exact characteristic matrix and complement vector")

	// The payoff: run it with the BMMC algorithm instead of sorting.
	ds, err := bmmc.CreateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	rep, err := bmmc.NewEngine().Permute(context.Background(), ds, det.Perm)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Verify(secret); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  executed detected permutation: %v\n", rep)
	fmt.Printf("  (the general-permutation merge-sort baseline would cost %d I/Os)\n\n", rep.SortBaseline)

	// Case 2: a genuinely arbitrary permutation — rejected, usually long
	// before the full verification scan completes.
	shuffled := rand.New(rand.NewSource(42)).Perm(cfg.N)
	det2, err := bmmc.DetectTargets(cfg, func(x uint64) uint64 { return uint64(shuffled[x]) })
	if err != nil {
		log.Fatal(err)
	}
	if det2.FailedAt >= 0 {
		fmt.Printf("mystery vector #2: BMMC=%v, reads=%d, first mismatch at source %d\n",
			det2.IsBMMC, det2.ParallelReads(), det2.FailedAt)
	} else {
		fmt.Printf("mystery vector #2: BMMC=%v, reads=%d (candidate matrix singular)\n",
			det2.IsBMMC, det2.ParallelReads())
	}
	if det2.IsBMMC {
		log.Fatal("random shuffle misdetected as BMMC")
	}
	fmt.Println("  correctly rejected; fall back to the general-permutation algorithm")
}
