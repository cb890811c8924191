package bmmc_test

import (
	"context"
	"errors"
	"testing"

	bmmc "repro"
	"repro/backendtest/chaos"
)

// TestChaosPublicAPI pins the adversarial-storage flow at the public
// surface: a chaos wrapper slots in through WithBackend like any custom
// backend, an injected mid-run fault surfaces from Engine.Permute wrapped
// in ErrInjectedFault, and the failed pass leaves the Dataset untouched —
// it commits nothing — so the same handle retries cleanly once the fault
// window closes.
func TestChaosPublicAPI(t *testing.T) {
	cfg := bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	fb := chaos.Flaky(bmmc.MemBackend(), chaos.FlakyOptions{FailAfterN: 3})
	fb.Disarm() // CreateDataset's canonical load runs clean
	ds, err := bmmc.CreateDataset(cfg, bmmc.WithBackend(fb))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	fb.Reset()
	fb.Arm()
	eng := bmmc.NewEngine()
	p := bmmc.BitReversal(cfg.LgN())
	_, err = eng.Permute(context.Background(), ds, p)
	if !errors.Is(err, bmmc.ErrInjectedFault) || !errors.Is(err, chaos.ErrInjectedFault) {
		t.Fatalf("want Engine.Permute to surface the injected fault, got %v", err)
	}

	// The dataset survives: its stored records are still the canonical
	// input, since the failed pass never got to commit.
	fb.Disarm()
	recs, err := ds.Records()
	if err != nil {
		t.Fatalf("dataset unreadable after failed pass: %v", err)
	}
	for i, got := range recs {
		if want := bmmc.MakeRecord(uint64(i)); got != want {
			t.Fatalf("record %d after failed pass: got %+v, want canonical %+v", i, got, want)
		}
	}

	// And the retry on the same handle completes and verifies.
	if _, err := eng.Permute(context.Background(), ds, p); err != nil {
		t.Fatalf("retry after fault window: %v", err)
	}
	if err := ds.Verify(p); err != nil {
		t.Fatal(err)
	}
}
