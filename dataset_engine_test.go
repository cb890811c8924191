package bmmc_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	bmmc "repro"
	"repro/internal/gf2"
)

// v3Config is the geometry every Dataset/Engine equivalence test runs on:
// small enough to be fast, rich enough that every engine class appears.
var v3Config = bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}

// mustPerm builds the test permutation or fails.
func mustPerm(t *testing.T, a bmmc.Matrix, c bmmc.Vec) bmmc.Permutation {
	t.Helper()
	p, err := bmmc.New(a, c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// classCases returns one representative permutation per engine class.
func classCases(t *testing.T, cfg bmmc.Config) []struct {
	name  string
	class bmmc.Class
	perm  bmmc.Permutation
} {
	t.Helper()
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	rng := bmmc.NewRand(11)
	mld := mustPerm(t, gf2.RandomMLD(rng, n, b, m), gf2.RandomVec(rng, n))
	return []struct {
		name  string
		class bmmc.Class
		perm  bmmc.Permutation
	}{
		{"MRC", bmmc.ClassMRC, bmmc.GrayCode(n)},
		{"MLD", bmmc.ClassMLD, mld},
		{"InvMLD", bmmc.ClassInvMLD, mld.Inverse()},
		{"BMMC", bmmc.ClassBMMC, bmmc.BitReversal(n)},
	}
}

// TestPermuteMatchesPlanExecute pins the single execution path:
// Engine.Permute is Engine.Plan followed by Engine.Execute, so for every
// engine class plus the identity, on RAM and file storage, the two leave
// identical records and Stats and return DeepEqual Reports. The reports
// also carry the paper's dispatch: the identity is free, one-pass classes
// cost exactly 2N/BD, and factored permutations cost what their plan
// quotes, within the Theorem 21 guarantee.
func TestPermuteMatchesPlanExecute(t *testing.T) {
	cfg := v3Config
	cases := append(classCases(t, cfg), struct {
		name  string
		class bmmc.Class
		perm  bmmc.Permutation
	}{"identity", bmmc.ClassIdentity, bmmc.Identity(cfg.LgN())})
	backends := []struct {
		name    string
		backend func(t *testing.T) bmmc.Backend
	}{
		{"mem", func(*testing.T) bmmc.Backend { return bmmc.MemBackend() }},
		{"file", func(t *testing.T) bmmc.Backend { return bmmc.FileBackend(t.TempDir()) }},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, be := range backends {
				t.Run(be.name, func(t *testing.T) {
					open := func() *bmmc.Dataset {
						ds, err := bmmc.CreateDataset(cfg, bmmc.WithBackend(be.backend(t)))
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { ds.Close() })
						return ds
					}
					dsPermute, dsExecute := open(), open()
					// Fresh engines on both sides, so both plans are cold
					// and the reports' PlanCached flags agree.
					repPermute, err := bmmc.NewEngine().Permute(ctx, dsPermute, tc.perm)
					if err != nil {
						t.Fatal(err)
					}
					eng := bmmc.NewEngine()
					pl, err := eng.Plan(cfg, tc.perm)
					if err != nil {
						t.Fatal(err)
					}
					repExecute, err := eng.Execute(ctx, pl, dsExecute)
					if err != nil {
						t.Fatal(err)
					}

					if !reflect.DeepEqual(repPermute, repExecute) {
						t.Fatalf("reports diverged:\n  Permute: %+v\n  Execute: %+v", repPermute, repExecute)
					}
					recsPermute, err := dsPermute.Records()
					if err != nil {
						t.Fatal(err)
					}
					recsExecute, err := dsExecute.Records()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(recsPermute, recsExecute) {
						t.Fatal("records diverged between Permute and Plan+Execute")
					}
					if a, b := dsPermute.Stats(), dsExecute.Stats(); !reflect.DeepEqual(a, b) {
						t.Fatalf("stats diverged:\n  Permute: %v\n  Execute: %v", a, b)
					}
					if err := dsPermute.Verify(tc.perm); err != nil {
						t.Fatal(err)
					}

					rep := repPermute
					if rep.Class != tc.class || pl.Class() != tc.class {
						t.Fatalf("dispatched as %v (plan %v), want %v", rep.Class, pl.Class(), tc.class)
					}
					if rep.ParallelIOs != pl.CostIOs() || rep.Passes != pl.PassCount() {
						t.Fatalf("measured %d passes / %d I/Os, plan quoted %d / %d",
							rep.Passes, rep.ParallelIOs, pl.PassCount(), pl.CostIOs())
					}
					switch tc.class {
					case bmmc.ClassIdentity:
						if rep.ParallelIOs != 0 {
							t.Fatalf("identity cost %d I/Os", rep.ParallelIOs)
						}
					case bmmc.ClassBMMC:
						if rep.ParallelIOs <= cfg.PassIOs() || rep.ParallelIOs > rep.UpperBound {
							t.Fatalf("factored cost %d outside (2N/BD, UB=%d]", rep.ParallelIOs, rep.UpperBound)
						}
					default:
						if rep.Passes != 1 || rep.ParallelIOs != cfg.PassIOs() {
							t.Fatalf("one-pass class ran %d passes / %d I/Os, want 1 / %d",
								rep.Passes, rep.ParallelIOs, cfg.PassIOs())
						}
					}
					if rep.String() == "" {
						t.Error("empty report string")
					}
				})
			}
		})
	}
}

// TestChainedExecutesEqualComposition pins the chained-jobs semantics, on
// RAM and on file storage: two Executes on one Dataset leave exactly the
// records a single run of the composed permutation produces, and count
// exactly the two plans' parallel I/Os. Running each step on a fresh
// Dataset instead, with step 1's records dumped and loaded into step 2's,
// leaves the identical bytes at the identical parallel-I/O total.
func TestChainedExecutesEqualComposition(t *testing.T) {
	cfg := v3Config
	n := cfg.LgN()
	p1 := bmmc.BitReversal(n)
	p2 := bmmc.Transpose(5, n-5)
	composed := p2.Compose(p1)
	ctx := context.Background()
	eng := bmmc.NewEngine()
	cost := 0
	for _, p := range []bmmc.Permutation{p1, p2} {
		pl, err := eng.Plan(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		cost += pl.CostIOs()
	}

	for _, storage := range []struct {
		name    string
		backend func(t *testing.T) bmmc.Backend
	}{
		{"mem", func(*testing.T) bmmc.Backend { return bmmc.MemBackend() }},
		{"file", func(t *testing.T) bmmc.Backend { return bmmc.FileBackend(t.TempDir()) }},
	} {
		t.Run(storage.name, func(t *testing.T) {
			create := func() *bmmc.Dataset {
				ds, err := bmmc.CreateDataset(cfg, bmmc.WithBackend(storage.backend(t)))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ds.Close() })
				return ds
			}
			dump := func(ds *bmmc.Dataset) []byte {
				var out bytes.Buffer
				if err := ds.Dump(ctx, &out); err != nil {
					t.Fatal(err)
				}
				return out.Bytes()
			}
			permute := func(ds *bmmc.Dataset, p bmmc.Permutation) {
				if _, err := eng.Permute(ctx, ds, p); err != nil {
					t.Fatal(err)
				}
			}

			ds := create()
			permute(ds, p1)
			permute(ds, p2)
			if err := ds.Verify(composed); err != nil {
				t.Fatalf("chained executes do not equal the composition: %v", err)
			}
			if got := ds.Stats().ParallelIOs(); got != cost {
				t.Fatalf("chain counted %d parallel I/Os, its plans cost %d", got, cost)
			}

			// Record-for-record against a fresh run of the composed map.
			ref := create()
			permute(ref, composed)
			want, _ := ref.Records()
			got, _ := ds.Records()
			if !reflect.DeepEqual(want, got) {
				t.Fatal("chained records differ from the composed permutation's records")
			}

			// Re-upload per step: fresh storage for each step, the records
			// streamed out of step 1 and into step 2.
			step1 := create()
			permute(step1, p1)
			step2 := create()
			if err := step2.Load(ctx, bytes.NewReader(dump(step1))); err != nil {
				t.Fatal(err)
			}
			permute(step2, p2)
			if !bytes.Equal(dump(step2), dump(ds)) {
				t.Fatal("re-uploaded steps leave different bytes than the chain")
			}
			if reup := step1.Stats().ParallelIOs() + step2.Stats().ParallelIOs(); reup != cost {
				t.Fatalf("re-uploaded steps counted %d parallel I/Os, the chain %d", reup, cost)
			}
		})
	}
}

// TestOneEngineManyDatasets runs one shared Engine over many Datasets from
// concurrent goroutines: every dataset must verify, and the engine's plan
// cache must have factorized the shared permutation exactly once.
func TestOneEngineManyDatasets(t *testing.T) {
	cfg := v3Config
	p := bmmc.BitReversal(cfg.LgN())
	eng := bmmc.NewEngine()
	// Warm the cache so the concurrent phase is all hits.
	if _, err := eng.Plan(cfg, p); err != nil {
		t.Fatal(err)
	}

	const tenants = 8
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := bmmc.CreateDataset(cfg)
			if err != nil {
				errs <- err
				return
			}
			defer ds.Close()
			if _, err := eng.Permute(context.Background(), ds, p); err != nil {
				errs <- err
				return
			}
			if err := ds.Verify(p); err != nil {
				errs <- fmt.Errorf("tenant dataset corrupt: %w", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cs := eng.CacheStats()
	if cs.Misses != 1 {
		t.Fatalf("shared engine factorized %d times for %d tenants, want exactly 1", cs.Misses, tenants)
	}
	if cs.Hits != tenants {
		t.Fatalf("plan cache hits = %d, want %d", cs.Hits, tenants)
	}
}

// TestOpenDatasetReattachesFiles pins OpenDataset's purpose: a file-backed
// dataset written (and Synced) by one "process" is reopened by another
// with its records intact — CreateDataset would instead reload the
// canonical layout. Bit reversal factorizes into an even pass count here,
// so the data ends in the source portion as OpenDataset requires.
func TestOpenDatasetReattachesFiles(t *testing.T) {
	cfg := v3Config
	p := bmmc.BitReversal(cfg.LgN())
	dir := t.TempDir()

	ds, err := bmmc.CreateDataset(cfg, bmmc.WithBackend(bmmc.FileBackend(dir)))
	if err != nil {
		t.Fatal(err)
	}
	eng := bmmc.NewEngine()
	rep, err := eng.Permute(context.Background(), ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes%2 != 0 {
		t.Fatalf("test premise broken: %d passes leaves data in the target portion", rep.Passes)
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := bmmc.OpenDataset(cfg, bmmc.WithBackend(bmmc.FileBackend(dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if err := reopened.Verify(p); err != nil {
		t.Fatalf("reopened dataset lost its records: %v", err)
	}
}

// TestConcurrentReadsDuringExecute exercises the Dataset lock split: many
// concurrent Dumps overlap freely, serialize against a stream of Executes
// and of Loads, and every Dump observes one committed generation — either
// the layout before or after a full run or load, never a torn
// intermediate — while runs and loads flip the portions.
func TestConcurrentReadsDuringExecute(t *testing.T) {
	cfg := v3Config
	p := bmmc.BitReversal(cfg.LgN()) // involution: valid states are identity or rev
	ds, err := bmmc.CreateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	eng := bmmc.NewEngine()
	inv := p.Inverse()
	// The two valid layouts as wire images: address y holds key y, or key
	// inv(y) once the permutation has run.
	var layouts [2][]byte
	for i, keyAt := range []func(uint64) uint64{func(y uint64) uint64 { return y }, inv.Apply} {
		layouts[i] = make([]byte, cfg.N*bmmc.RecordBytes)
		for y := uint64(0); y < uint64(cfg.N); y++ {
			bmmc.MakeRecord(keyAt(y)).Encode(layouts[i][y*bmmc.RecordBytes:])
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				var buf bytes.Buffer
				if err := ds.Dump(context.Background(), &buf); err != nil {
					errs <- err
					return
				}
				// The snapshot must be one of the two valid layouts.
				data := buf.Bytes()
				r0 := bmmc.DecodeRecord(data)
				okIdentity, okRev := r0.Key == 0, r0.Key == inv.Apply(0)
				valid := false
				for _, key0 := range []struct {
					ok  bool
					inv func(uint64) uint64
				}{{okIdentity, func(y uint64) uint64 { return y }}, {okRev, inv.Apply}} {
					if !key0.ok {
						continue
					}
					consistent := true
					for _, y := range []uint64{1, uint64(cfg.N) / 3, uint64(cfg.N) - 1} {
						if bmmc.DecodeRecord(data[y*bmmc.RecordBytes:]).Key != key0.inv(y) {
							consistent = false
							break
						}
					}
					if consistent {
						valid = true
						break
					}
				}
				if !valid {
					errs <- fmt.Errorf("dump observed a torn dataset state (record 0 holds key %d)", r0.Key)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := eng.Permute(context.Background(), ds, p); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := ds.Load(context.Background(), bytes.NewReader(layouts[(r+i)%2])); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
