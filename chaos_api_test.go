package bmmc_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
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

// TestChaosPowerLossAfterSync pins what Dataset.Sync promises: the stored
// records survive a power cut. PowerLoss drops, or tears at block
// granularity, every write no Sync covered. After a Load, a one-pass job
// and a two-pass job, which leave the stored records in either portion, a
// Sync and then a crash must leave Dump unchanged. A crash without the
// Sync must change it, or the wrapper loses nothing and the first check
// proves nothing.
func TestChaosPowerLossAfterSync(t *testing.T) {
	cfg := bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	ctx := context.Background()
	input := make([]byte, cfg.N*bmmc.RecordBytes)
	rand.New(rand.NewSource(32)).Read(input)
	permute := func(p bmmc.Permutation, passes int) func(*testing.T, *bmmc.Dataset) {
		return func(t *testing.T, ds *bmmc.Dataset) {
			rep, err := bmmc.NewEngine().Permute(ctx, ds, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Passes != passes {
				t.Fatalf("test premise broken: %d passes, want %d", rep.Passes, passes)
			}
		}
	}
	steps := []struct {
		name string
		run  func(*testing.T, *bmmc.Dataset)
	}{
		{"Load", func(t *testing.T, ds *bmmc.Dataset) {
			if err := ds.Load(ctx, bytes.NewReader(input)); err != nil {
				t.Fatal(err)
			}
		}},
		{"OnePass", permute(bmmc.GrayCode(cfg.LgN()), 1)},
		{"TwoPass", permute(bmmc.BitReversal(cfg.LgN()), 2)},
	}
	crashes := []struct {
		name string
		o    chaos.PowerLossOptions
	}{
		{"Drop", chaos.PowerLossOptions{}},
		{"Tear", chaos.PowerLossOptions{Seed: 1}},
	}
	dump := func(t *testing.T, ds *bmmc.Dataset) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := ds.Dump(ctx, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, st := range steps {
		for _, c := range crashes {
			for _, synced := range []bool{true, false} {
				name := st.name + "/" + c.name + "/NoSync"
				if synced {
					name = st.name + "/" + c.name + "/Sync"
				}
				t.Run(name, func(t *testing.T) {
					pl := chaos.PowerLoss(bmmc.MemBackend(), c.o)
					ds, err := bmmc.CreateDataset(cfg, bmmc.WithBackend(pl))
					if err != nil {
						t.Fatal(err)
					}
					defer ds.Close()
					if err := ds.Sync(); err != nil { // the canonical fill is durable
						t.Fatal(err)
					}
					st.run(t, ds)
					committed := dump(t, ds)
					if synced {
						if err := ds.Sync(); err != nil {
							t.Fatal(err)
						}
					}
					if err := pl.Crash(); err != nil {
						t.Fatal(err)
					}
					got := dump(t, ds)
					if synced && !bytes.Equal(got, committed) {
						t.Fatal("a crash after Sync changed the committed records")
					}
					if !synced && bytes.Equal(got, committed) {
						t.Fatal("a crash without Sync lost nothing: the wrapper does not bite")
					}
				})
			}
		}
	}
}
