package bmmc_test

import (
	"context"
	"fmt"
	"log"

	bmmc "repro"
)

// Example demonstrates the basic workflow: create a dataset on a simulated
// parallel disk system, permute it with an Engine, and inspect the cost.
func Example() {
	cfg := bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	ds, err := bmmc.CreateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()

	rep, err := bmmc.NewEngine().Permute(context.Background(), ds, bmmc.BitReversal(cfg.LgN()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("passes=%d ios=%d rank=%d\n", rep.Passes, rep.ParallelIOs, rep.RankGamma)
	fmt.Println(ds.Verify(bmmc.BitReversal(cfg.LgN())) == nil)
	// Output:
	// passes=2 ios=512 rank=3
	// true
}

// ExampleEngine_Plan shows the separation of planning from execution: the
// plan is inspected before any data moves and executed repeatedly without
// re-planning.
func ExampleEngine_Plan() {
	cfg := bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	ds, err := bmmc.CreateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	eng := bmmc.NewEngine()

	plan, err := eng.Plan(cfg, bmmc.BitReversal(cfg.LgN()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("class=%v passes=%d cost=%d (UB %d)\n",
		plan.Class(), plan.PassCount(), plan.CostIOs(), plan.UpperBoundIOs())

	// Bit reversal is an involution: executing the plan twice restores
	// the layout. Both runs reuse the factorization computed above.
	for i := 0; i < 2; i++ {
		if _, err := eng.Execute(context.Background(), plan, ds); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(ds.Verify(bmmc.Identity(cfg.LgN())) == nil)
	// Output:
	// class=BMMC passes=2 cost=512 (UB 768)
	// true
}

// ExampleGrayCode shows that MRC permutations cost exactly one pass.
func ExampleGrayCode() {
	cfg := bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	ds, _ := bmmc.CreateDataset(cfg)
	defer ds.Close()

	rep, _ := bmmc.NewEngine().Permute(context.Background(), ds, bmmc.GrayCode(cfg.LgN()))
	fmt.Printf("class=%v passes=%d ios=%d (one pass = %d)\n",
		rep.Class, rep.Passes, rep.ParallelIOs, cfg.PassIOs())
	// Output:
	// class=MRC passes=1 ios=256 (one pass = 256)
}

// ExampleDetectTargets recovers a hidden BMMC permutation from its raw
// target-address vector (Section 6 of the paper).
func ExampleDetectTargets() {
	cfg := bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	hidden := bmmc.Transpose(5, 7)

	det, _ := bmmc.DetectTargets(cfg, hidden.Apply)
	fmt.Printf("detected=%v exact=%v reads=%d (bound %d)\n",
		det.IsBMMC, det.Perm.Equal(hidden), det.ParallelReads(), bmmc.DetectionBoundReads(cfg))
	// Output:
	// detected=true exact=true reads=131 (bound 131)
}

// ExampleMarshalPermutation shows the text interchange format used by the
// command-line tools.
func ExampleMarshalPermutation() {
	p := bmmc.GrayCode(3)
	data := bmmc.MarshalPermutation(p)
	fmt.Print(string(data))

	back, _ := bmmc.ParsePermutation(data)
	fmt.Println(back.Equal(p))
	// Output:
	// bmmc n=3
	// c=000
	// 110
	// 011
	// 001
	// true
}

// ExamplePermutation_Compose chains two permutations; the matrix product
// characterizes the composition (Lemma 1).
func ExamplePermutation_Compose() {
	n := 8
	g := bmmc.GrayCode(n)
	r := bmmc.BitReversal(n)
	both := r.Compose(g) // apply g first, then r

	x := uint64(0b10110001)
	fmt.Println(both.Apply(x) == r.Apply(g.Apply(x)))
	// Output:
	// true
}

// ExampleUpperBoundIOs evaluates the paper's bound expressions directly.
func ExampleUpperBoundIOs() {
	cfg := bmmc.Config{N: 1 << 20, D: 16, B: 64, M: 1 << 14}
	for _, rank := range []int{0, 3, 6} {
		fmt.Printf("rank %d: LB %.0f, UB %d\n", rank,
			bmmc.LowerBoundIOs(cfg, rank), bmmc.UpperBoundIOs(cfg, rank))
	}
	// Output:
	// rank 0: LB 1024, UB 4096
	// rank 3: LB 1408, UB 6144
	// rank 6: LB 1792, UB 6144
}
