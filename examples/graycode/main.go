// Gray-code reordering: the data-parallel workload the paper uses to
// motivate MRC permutations. Converting between binary and binary-reflected
// Gray-code orderings (used when embedding grids in hypercubes) is an MRC
// permutation, so it costs exactly one pass — 2N/BD parallel I/Os — for any
// memory size, and the run-time detector recognizes it without being told.
package main

import (
	"context"
	"fmt"
	"log"

	bmmc "repro"
)

func main() {
	cfg := bmmc.Config{N: 1 << 15, D: 8, B: 16, M: 1 << 10}
	n := cfg.LgN()

	ds, err := bmmc.CreateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	eng := bmmc.NewEngine()
	ctx := context.Background()

	gray := bmmc.GrayCode(n)
	fmt.Printf("machine: %v\n", cfg)
	fmt.Printf("gray code characteristic matrix is unit upper triangular -> MRC\n\n")

	rep, err := eng.Permute(ctx, ds, gray)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gray reorder:  %v\n", rep)
	if rep.ParallelIOs != cfg.PassIOs() {
		log.Fatalf("expected exactly one pass (%d I/Os), got %d", cfg.PassIOs(), rep.ParallelIOs)
	}
	if err := ds.Verify(gray); err != nil {
		log.Fatal(err)
	}

	// Neighboring Gray codes differ in one bit: spot-check the layout.
	recs, err := ds.Records()
	if err != nil {
		log.Fatal(err)
	}
	for x := uint64(0); x < 8; x++ {
		if recs[gray.Apply(x)].Key != x {
			log.Fatalf("record %d not at address %d", x, gray.Apply(x))
		}
		fmt.Printf("  record %d now at address %d (gray(%d) = %d)\n", x, gray.Apply(x), x, x^(x>>1))
	}

	// The inverse is also MRC: one more pass returns to binary order.
	inv, err := eng.Permute(ctx, ds, bmmc.GrayCodeInverse(n))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninverse gray:  %v\n", inv)
	if err := ds.Verify(bmmc.Identity(n)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("round trip verified in two passes total")

	// A programmer wouldn't need to know any of this: handed only the raw
	// target addresses, the Section 6 detector identifies the permutation.
	det, err := bmmc.DetectTargets(cfg, gray.Apply)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndetector: BMMC=%v in %d parallel reads (bound %d)\n",
		det.IsBMMC, det.ParallelReads(), bmmc.DetectionBoundReads(cfg))
}
