// Out-of-core matrix transpose: the motivating workload of the paper's
// introduction. A 512 x 128 matrix too large for memory lives across 8
// disks sharded over two directories (stand-ins for two physical
// volumes); transposing it is the BMMC permutation Transpose(lgR, lgS),
// and the measured cost lands between the Theorem 3 lower bound and the
// Theorem 21 guarantee — far below the sorting cost a general-permutation
// routine would pay.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	bmmc "repro"
)

func main() {
	const lgR, lgS = 9, 7 // 512 rows, 128 columns
	cfg := bmmc.Config{N: 1 << (lgR + lgS), D: 8, B: 16, M: 1 << 10}

	// Two directories, four disk files each: mount each on its own volume
	// and the simulated spindles seek independently.
	vol1, err := os.MkdirTemp("", "bmmc-transpose-vol1-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(vol1)
	vol2, err := os.MkdirTemp("", "bmmc-transpose-vol2-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(vol2)

	ds, err := bmmc.CreateDataset(cfg,
		bmmc.WithBackend(bmmc.ShardedBackend(vol1, vol2)),
		bmmc.WithConcurrentIO(true))
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	eng := bmmc.NewEngine()
	ctx := context.Background()
	fmt.Printf("machine: %v (disks sharded across %s and %s)\n", cfg, vol1, vol2)
	fmt.Printf("matrix:  %d x %d row-major, element (i,j) at address i*%d+j\n\n",
		1<<lgR, 1<<lgS, 1<<lgS)

	tr := bmmc.Transpose(lgR, lgS)
	rep, err := eng.Permute(ctx, ds, tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transpose: %v\n", rep)
	fmt.Printf("the general-permutation (merge sort) baseline would cost %d parallel I/Os\n\n", rep.SortBaseline)

	// Spot-check: element (i, j) must now live at address j*R + i.
	recs, err := ds.Records()
	if err != nil {
		log.Fatal(err)
	}
	const R, S = 1 << lgR, 1 << lgS
	for _, probe := range [][2]uint64{{0, 0}, {3, 100}, {511, 127}, {256, 64}} {
		i, j := probe[0], probe[1]
		at := j*R + i
		if recs[at].Key != i*S+j {
			log.Fatalf("element (%d,%d): address %d holds record %d, want %d", i, j, at, recs[at].Key, i*S+j)
		}
		fmt.Printf("element (%3d,%3d): source address %6d -> target address %6d  ok\n", i, j, i*S+j, at)
	}
	if err := ds.Verify(tr); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfull verification passed: every element transposed")

	// Transposing back restores the original layout.
	back := bmmc.Transpose(lgS, lgR)
	if _, err := eng.Permute(ctx, ds, back); err != nil {
		log.Fatal(err)
	}
	if err := ds.Verify(bmmc.Identity(cfg.LgN())); err != nil {
		log.Fatal(err)
	}
	fmt.Println("round trip verified: transpose of transpose is the identity")
}
