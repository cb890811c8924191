package bmmc_test

import (
	"context"
	"testing"

	bmmc "repro"
)

// Regression test for the portion-swap contract of Records/LoadRecords:
// the source portion swaps after every pass, so after an odd number of
// passes the current records physically live in the second portion.
// Records and LoadRecords must keep tracking the swap so callers always
// see the output of the most recent permutation, however many passes a
// chain of permutations consumed.
func TestRecordsTrackPortionAcrossChainedPasses(t *testing.T) {
	cfg := bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	p, err := bmmc.CreateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	eng := bmmc.NewEngine()
	ctx := context.Background()
	n := cfg.LgN()

	checkImage := func(stage string, cumulative bmmc.Permutation) {
		t.Helper()
		recs, err := p.Records()
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for y, r := range recs {
			if got := cumulative.Apply(r.Key); got != uint64(y) {
				t.Fatalf("%s: address %d holds record %d, which belongs at %d", stage, y, r.Key, got)
			}
		}
	}

	// One pass (odd): Gray code is MRC.
	gray := bmmc.GrayCode(n)
	rep, err := eng.Permute(ctx, p, gray)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes != 1 {
		t.Fatalf("Gray code took %d passes, want 1", rep.Passes)
	}
	checkImage("after 1 pass", gray)

	// A multi-pass permutation on top; cumulative = bitrev ∘ gray. The
	// total pass count over the chain is odd or even depending on the
	// factoring — Records must not care.
	bitrev := bmmc.BitReversal(n)
	if _, err := eng.Permute(ctx, p, bitrev); err != nil {
		t.Fatal(err)
	}
	cumulative := bitrev.Compose(gray)
	checkImage("after chain", cumulative)

	// LoadRecords must target the same portion Records reads: a write
	// followed by a fresh permutation must start from the loaded state.
	recs, err := p.Records()
	if err != nil {
		t.Fatal(err)
	}
	// Re-load the records shifted by one address so the state is custom.
	rot := append(recs[1:len(recs):len(recs)], recs[0])
	if err := p.LoadRecords(rot); err != nil {
		t.Fatal(err)
	}
	got, err := p.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rot {
		if got[i] != rot[i] {
			t.Fatalf("LoadRecords/Records round-trip diverged at %d", i)
		}
	}

	// And one more permutation still runs correctly from the loaded state.
	rev := bmmc.VectorReversal(n)
	if _, err := eng.Permute(ctx, p, rev); err != nil {
		t.Fatal(err)
	}
	final, err := p.Records()
	if err != nil {
		t.Fatal(err)
	}
	inv := rev.Inverse()
	for y, r := range final {
		// final[y] must be rot[x] where rev maps x to y.
		if want := rot[inv.Apply(uint64(y))]; r != want {
			t.Fatalf("after reload+reverse: address %d holds key %d, want key %d", y, r.Key, want.Key)
		}
	}
}
