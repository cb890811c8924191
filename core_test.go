package bmmc

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

var smallConfig = pdm.Config{N: 1 << 11, D: 4, B: 8, M: 1 << 7}

// newTestDataset returns a canonical mem-backed dataset closed at cleanup.
func newTestDataset(t *testing.T, cfg pdm.Config) *Dataset {
	t.Helper()
	ds, err := CreateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func TestEngineReportFields(t *testing.T) {
	ds := newTestDataset(t, smallConfig)
	rev := perm.BitReversal(smallConfig.LgN())
	rep, err := NewEngine().Permute(context.Background(), ds, rev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != perm.ClassBMMC {
		t.Errorf("class %v", rep.Class)
	}
	if rep.RankGamma != rev.RankGamma(smallConfig.LgB()) {
		t.Errorf("rank gamma %d", rep.RankGamma)
	}
	if rep.UpperBound != bounds.UpperBound(smallConfig, rep.RankGamma) {
		t.Errorf("upper bound %d", rep.UpperBound)
	}
	if rep.SortBaseline != bounds.MergeSortIOs(smallConfig) {
		t.Errorf("sort baseline %d", rep.SortBaseline)
	}
	if !strings.Contains(rep.String(), "passes") {
		t.Errorf("report string %q", rep.String())
	}
	if err := ds.Verify(rev); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetStatsAndReset(t *testing.T) {
	ds := newTestDataset(t, smallConfig)
	if _, err := NewEngine().Permute(context.Background(), ds, perm.GrayCode(smallConfig.LgN())); err != nil {
		t.Fatal(err)
	}
	if ds.Stats().ParallelIOs() == 0 {
		t.Error("no I/Os recorded")
	}
	ds.ResetStats()
	if ds.Stats().ParallelIOs() != 0 {
		t.Error("reset failed")
	}
	if ds.Config() != smallConfig {
		t.Error("config mismatch")
	}
	if ds.System() == nil {
		t.Error("nil system")
	}
}

// TestEngineRejectsWrongWidth: every entry point that takes a
// permutation rejects one whose width is not lg N, including a plan-cache
// hit for a permutation planned on a wider geometry.
func TestEngineRejectsWrongWidth(t *testing.T) {
	ds := newTestDataset(t, smallConfig)
	eng := NewEngine()
	ctx := context.Background()
	wide := perm.BitReversal(smallConfig.LgN() + 1)
	if _, err := eng.Permute(ctx, ds, wide); err == nil {
		t.Fatal("wrong address width accepted by Permute")
	}
	if _, err := eng.PermuteFactored(ctx, ds, wide); err == nil {
		t.Fatal("wrong address width accepted by PermuteFactored")
	}
	if _, err := PlanFor(smallConfig, wide, true); err == nil {
		t.Fatal("wrong address width accepted by PlanFor")
	}
}

func TestDatasetLoadRecordsRoundTrip(t *testing.T) {
	ds := newTestDataset(t, smallConfig)
	recs := make([]pdm.Record, smallConfig.N)
	for i := range recs {
		recs[i] = pdm.Record{Key: uint64(i) * 3, Tag: 7}
	}
	if err := ds.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	got, err := ds.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestDatasetInvalidConfig(t *testing.T) {
	bad := pdm.Config{N: 100, D: 3, B: 5, M: 7}
	if _, err := CreateDataset(bad); err == nil {
		t.Fatal("invalid config accepted by CreateDataset")
	}
	if _, err := NewEngine().Plan(bad, perm.Identity(7)); err == nil {
		t.Fatal("invalid config accepted by Plan")
	}
}

// TestEngineFaultSurface: a dataset built over a failing backend surfaces
// the injected error through Engine.Permute instead of corrupting data.
func TestEngineFaultSurface(t *testing.T) {
	faulty := pdm.NewFaultyBackend(pdm.MemBackend(), 4)
	sys, err := pdm.NewSystem(smallConfig, faulty)
	if err != nil {
		t.Fatal(err)
	}
	// Build the dataset by hand around the faulty system, loading the
	// records with injection disarmed, then trip the fault during the
	// permutation.
	ds := &Dataset{sys: sys}
	defer ds.Close()
	recs := make([]pdm.Record, smallConfig.N)
	for i := range recs {
		recs[i] = pdm.MakeRecord(uint64(i))
	}
	faulty.Disarm()
	if err := ds.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	faulty.Arm()
	_, err = NewEngine().Permute(context.Background(), ds, perm.BitReversal(smallConfig.LgN()))
	if !errors.Is(err, pdm.ErrInjectedFault) {
		t.Fatalf("fault not surfaced: %v", err)
	}
}

func TestPermuteGeneralRandom(t *testing.T) {
	ds := newTestDataset(t, smallConfig)
	rng := rand.New(rand.NewSource(9))
	target := rng.Perm(smallConfig.N)
	targetOf := func(x uint64) uint64 { return uint64(target[x]) }
	rep, err := NewEngine().PermuteGeneral(context.Background(), ds, targetOf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes < 2 {
		t.Errorf("sort finished in %d passes", rep.Passes)
	}
	if err := ds.VerifyMapping(targetOf); err != nil {
		t.Fatal(err)
	}
}

// TestPermuteGeneralRefusesMovedKeys: the merge sort orders records by the
// target of their Key, so a dataset whose keys are no longer their
// addresses — after a permutation, or after loading the caller's own
// records — is refused at the first such address, and its records stay as
// they were.
func TestPermuteGeneralRefusesMovedKeys(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 7}
	ctx := context.Background()
	permuted := newTestDataset(t, cfg)
	if _, err := NewEngine().Permute(ctx, permuted, perm.GrayCode(cfg.LgN())); err != nil {
		t.Fatal(err)
	}
	loaded := newTestDataset(t, cfg)
	recs := make([]pdm.Record, cfg.N)
	for i := range recs {
		recs[i] = pdm.MakeRecord(uint64(i) ^ 0x5a5)
	}
	if err := loaded.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	reverse := func(x uint64) uint64 { return uint64(cfg.N-1) - x }
	for _, c := range []struct {
		name string
		ds   *Dataset
		want string
	}{
		{"after a Gray-code permutation", permuted, "address 2 holds key 3"},
		{"after LoadRecords", loaded, "address 0 holds key 1445"},
	} {
		before, err := c.ds.Records()
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewEngine().PermuteGeneral(ctx, c.ds, reverse)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: PermuteGeneral returned %v, want a refusal naming %q", c.name, err, c.want)
		}
		after, err := c.ds.Records()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(before, after) {
			t.Errorf("%s: a refused PermuteGeneral changed the stored records", c.name)
		}
	}
}

// TestPermuteGeneralRefusesNonBijection pins the last merge pass's check:
// a targetOf that sends two addresses to one target, or one outside
// 0..N-1, is refused with an error naming the first address that would
// receive another's record, while a bijection still lands every record.
func TestPermuteGeneralRefusesNonBijection(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 7}
	ctx := context.Background()
	for _, c := range []struct {
		name     string
		targetOf func(uint64) uint64
		want     string
	}{
		{"x -> x/2", func(x uint64) uint64 { return x / 2 }, "address 1 receives the record bound for 0"},
		{"x -> x+N", func(x uint64) uint64 { return x + uint64(cfg.N) }, "address 0 receives the record bound for 4096"},
	} {
		_, err := NewEngine().PermuteGeneral(ctx, newTestDataset(t, cfg), c.targetOf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: PermuteGeneral returned %v, want a refusal naming %q", c.name, err, c.want)
		}
	}
	ds := newTestDataset(t, cfg)
	reverse := func(x uint64) uint64 { return uint64(cfg.N-1) - x }
	if _, err := NewEngine().PermuteGeneral(ctx, ds, reverse); err != nil {
		t.Fatal(err)
	}
	if err := ds.VerifyMapping(reverse); err != nil {
		t.Fatal(err)
	}
}

func TestEngineInverseMLDDispatch(t *testing.T) {
	cfg := smallConfig
	rng := rand.New(rand.NewSource(10))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	mld := perm.MustNew(gf2.RandomMLD(rng, n, b, m), gf2.RandomVec(rng, n))
	inv := mld.Inverse()
	if inv.IsMLD(b, m) || inv.IsMRC(m) {
		t.Skip("inverse degenerated to a forward one-pass class")
	}
	ds := newTestDataset(t, cfg)
	rep, err := NewEngine().Permute(context.Background(), ds, inv)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes != 1 {
		t.Errorf("inverse-MLD dispatched to %d passes", rep.Passes)
	}
	if rep.Class != perm.ClassInvMLD {
		t.Errorf("report class %v, want %v", rep.Class, perm.ClassInvMLD)
	}
	if err := ds.Verify(inv); err != nil {
		t.Fatal(err)
	}
}

// TestPermuteComposedBatching: composing a sequence with Compose before
// running it (Lemma 1) is never more expensive than running it step by
// step, and a permutation followed by its inverse is free.
func TestPermuteComposedBatching(t *testing.T) {
	n := smallConfig.LgN()
	rev := perm.BitReversal(n)
	eng := NewEngine()
	ctx := context.Background()
	compose := func(seq ...perm.BMMC) perm.BMMC {
		out := perm.Identity(n)
		for _, q := range seq {
			out = q.Compose(out)
		}
		return out
	}

	batched := newTestDataset(t, smallConfig)
	rep, err := eng.Permute(ctx, batched, compose(rev, perm.GrayCode(n), perm.GrayCode(n).Inverse(), rev))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParallelIOs != 0 {
		t.Errorf("self-cancelling batch cost %d I/Os", rep.ParallelIOs)
	}
	if err := batched.Verify(perm.Identity(n)); err != nil {
		t.Fatal(err)
	}

	// A non-trivial batch lands correctly and costs no more than the steps.
	seq := []perm.BMMC{perm.GrayCode(n), rev, perm.RotateBits(n, 3)}
	b2 := newTestDataset(t, smallConfig)
	rep, err = eng.Permute(ctx, b2, compose(seq...))
	if err != nil {
		t.Fatal(err)
	}
	want := seq[2].Compose(seq[1]).Compose(seq[0])
	if err := b2.Verify(want); err != nil {
		t.Fatal(err)
	}
	stepwise := newTestDataset(t, smallConfig)
	steps := 0
	for _, q := range seq {
		srep, err := eng.Permute(ctx, stepwise, q)
		if err != nil {
			t.Fatal(err)
		}
		steps += srep.ParallelIOs
	}
	if rep.ParallelIOs > steps {
		t.Errorf("composed run cost %d I/Os, step by step %d", rep.ParallelIOs, steps)
	}
	if err := stepwise.Verify(want); err != nil {
		t.Fatal(err)
	}
}

// allocated returns the bytes fn allocates on the heap, measured after two
// collections have emptied every pool, so a pooled slab cannot hide an
// allocation.
func allocated(fn func()) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDatasetBulkPathsHoldFewChunks: the canonical fill behind
// CreateDataset and the scan behind Verify each allocate a few chunks of
// 2^14 records on file storage of 2^20 records, not N records.
func TestDatasetBulkPathsHoldFewChunks(t *testing.T) {
	cfg := pdm.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}
	limit := uint64(4 * (1 << 14) * pdm.RecordBytes)
	var ds *Dataset
	var err error
	if got := allocated(func() { ds, err = CreateDataset(cfg, WithBackend(pdm.FileBackend(t.TempDir()))) }); err != nil {
		t.Fatal(err)
	} else if got > limit {
		t.Errorf("CreateDataset of %d records allocated %d bytes, want at most four chunks (%d)", cfg.N, got, limit)
	}
	defer ds.Close()
	if got := allocated(func() { err = ds.Verify(perm.Identity(cfg.LgN())) }); err != nil {
		t.Fatal(err)
	} else if got > limit {
		t.Errorf("Verify of %d records allocated %d bytes, want at most four chunks (%d)", cfg.N, got, limit)
	}
}

// TestChaosLoadRecordsWriteFault: a storage fault part way through
// Dataset.LoadRecords leaves the stored records as they were, and the
// retry commits.
func TestChaosLoadRecordsWriteFault(t *testing.T) {
	fb := pdm.NewFlakyBackend(pdm.MemBackend(), pdm.FlakyOptions{FailAfterN: smallConfig.Blocks() / 2, Mode: pdm.FaultWriteOnly})
	fb.Disarm()
	ds, err := CreateDataset(smallConfig, WithBackend(fb))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	before, err := ds.Records()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]pdm.Record, smallConfig.N)
	for i := range recs {
		recs[i] = pdm.MakeRecord(uint64(i) ^ 0x5a5)
	}
	fb.Arm()
	err = ds.LoadRecords(recs)
	fb.Disarm()
	if !errors.Is(err, pdm.ErrInjectedFault) {
		t.Fatalf("faulted LoadRecords error = %v, want the injected fault", err)
	}
	holds := func(want []pdm.Record) {
		t.Helper()
		got, err := ds.Records()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("address %d holds %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	holds(before)
	if err := ds.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	holds(recs)
}
