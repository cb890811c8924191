package bmmc_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	bmmc "repro"
)

var planConfig = bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}

// newPlanDataset returns a canonical dataset on cfg, closed at cleanup.
func newPlanDataset(tb testing.TB, cfg bmmc.Config, opts ...bmmc.Option) *bmmc.Dataset {
	tb.Helper()
	ds, err := bmmc.CreateDataset(cfg, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ds.Close() })
	return ds
}

// TestPlanExecuteMatchesPermute: planning once and calling Execute N times
// yields byte-identical records and Stats versus N Permute calls that
// re-plan every time, and the planning work happens exactly once — the
// plan cache sees no further traffic from Execute.
func TestPlanExecuteMatchesPermute(t *testing.T) {
	const reps = 3
	for _, tc := range []struct {
		name string
		perm bmmc.Permutation
	}{
		{"bitrev", bmmc.BitReversal(12)},
		{"gray", bmmc.GrayCode(12)},
		{"random", bmmc.RandomPermutation(bmmc.NewRand(11), 12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			planned, replanned := newPlanDataset(t, planConfig), newPlanDataset(t, planConfig)
			eng := bmmc.NewEngine()
			uncached := bmmc.NewEngine(bmmc.WithPlanCache(0))

			plan, err := eng.Plan(planConfig, tc.perm)
			if err != nil {
				t.Fatal(err)
			}
			statsAfterPlan := eng.CacheStats()

			ctx := context.Background()
			for rep := 0; rep < reps; rep++ {
				repA, err := eng.Execute(ctx, plan, planned)
				if err != nil {
					t.Fatalf("Execute rep %d: %v", rep, err)
				}
				repB, err := uncached.Permute(ctx, replanned, tc.perm)
				if err != nil {
					t.Fatalf("Permute rep %d: %v", rep, err)
				}
				if repA.Passes != repB.Passes || repA.ParallelIOs != repB.ParallelIOs {
					t.Fatalf("rep %d: Execute cost (%d passes, %d IOs) != Permute cost (%d passes, %d IOs)",
						rep, repA.Passes, repA.ParallelIOs, repB.Passes, repB.ParallelIOs)
				}
				recsA, err := planned.Records()
				if err != nil {
					t.Fatal(err)
				}
				recsB, err := replanned.Records()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(recsA, recsB) {
					t.Fatalf("rep %d: records diverge between Execute and Permute", rep)
				}
				if a, b := planned.Stats(), replanned.Stats(); !reflect.DeepEqual(a, b) {
					t.Fatalf("rep %d: stats diverge: Execute %+v, Permute %+v", rep, a, b)
				}
			}
			// Execute must never re-plan: no cache traffic after Plan.
			if got := eng.CacheStats(); got != statsAfterPlan {
				t.Errorf("Execute touched the plan cache: before %+v, after %+v", statsAfterPlan, got)
			}
		})
	}
}

// TestPlanInspectable pins the plan's introspection surface: class, pass
// list, exact cost, and the Theorem 3 / Theorem 21 sandwich.
func TestPlanInspectable(t *testing.T) {
	eng := bmmc.NewEngine()
	plan, err := eng.Plan(planConfig, bmmc.BitReversal(12))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Class() != bmmc.ClassBMMC {
		t.Errorf("bit reversal class = %v, want BMMC", plan.Class())
	}
	if plan.Geometry() != planConfig {
		t.Errorf("plan geometry %v, want %v", plan.Geometry(), planConfig)
	}
	passes := plan.Passes()
	if len(passes) != plan.PassCount() || plan.PassCount() == 0 {
		t.Fatalf("PassCount %d inconsistent with Passes() len %d", plan.PassCount(), len(passes))
	}
	if got, want := plan.CostIOs(), plan.PassCount()*planConfig.PassIOs(); got != want {
		t.Errorf("CostIOs = %d, want %d", got, want)
	}
	if float64(plan.CostIOs()) < plan.LowerBoundIOs() || plan.CostIOs() > plan.UpperBoundIOs() {
		t.Errorf("cost %d outside [LB %.0f, UB %d]", plan.CostIOs(), plan.LowerBoundIOs(), plan.UpperBoundIOs())
	}
	// The pass list composes back to the planned permutation.
	composed := bmmc.Identity(12)
	for _, pass := range passes {
		composed = pass.Perm.Compose(composed)
	}
	if !reflect.DeepEqual(composed, plan.Permutation()) {
		t.Error("plan passes do not compose to the planned permutation")
	}

	// An identity plan is free and empty.
	idPlan, err := eng.Plan(planConfig, bmmc.Identity(12))
	if err != nil {
		t.Fatal(err)
	}
	if idPlan.PassCount() != 0 || idPlan.CostIOs() != 0 {
		t.Errorf("identity plan: %d passes, %d IOs, want 0, 0", idPlan.PassCount(), idPlan.CostIOs())
	}
}

// TestPlanPortableAcrossDatasets executes one Engine's plan through a
// second Engine on a Dataset with the same geometry, and rejects executing
// on a different geometry.
func TestPlanPortableAcrossDatasets(t *testing.T) {
	b := newPlanDataset(t, planConfig)
	tr := bmmc.Transpose(6, 6)
	plan, err := bmmc.NewEngine().Plan(planConfig, tr)
	if err != nil {
		t.Fatal(err)
	}
	other := bmmc.NewEngine()
	ctx := context.Background()
	if _, err := other.Execute(ctx, plan, b); err != nil {
		t.Fatalf("executing the plan through another engine: %v", err)
	}
	if err := b.Verify(tr); err != nil {
		t.Errorf("records wrong after executing a portable plan: %v", err)
	}

	wider := newPlanDataset(t, bmmc.Config{N: 1 << 13, D: 4, B: 8, M: 1 << 8})
	if _, err := other.Execute(ctx, plan, wider); err == nil {
		t.Error("executing a 2^12-record plan on a 2^13-record Dataset unexpectedly succeeded")
	}
	if _, err := other.Execute(ctx, nil, b); err == nil {
		t.Error("executing a nil plan unexpectedly succeeded")
	}
	if _, err := other.Execute(ctx, plan, nil); err == nil {
		t.Error("executing on a nil Dataset unexpectedly succeeded")
	}
}

// TestExecuteCancellation cancels a multi-pass run mid-pass (from a
// progress callback, so the cancellation lands between memoryloads of a
// specific pass) and checks the contract: ctx's error comes back, no
// goroutine leaks, the stored records are usable, and the same Dataset
// completes the permutation afterwards.
func TestExecuteCancellation(t *testing.T) {
	p := newPlanDataset(t, planConfig)
	eng := bmmc.NewEngine()

	bitrev := bmmc.BitReversal(12)
	plan, err := eng.Plan(planConfig, bitrev)
	if err != nil {
		t.Fatal(err)
	}

	before, err := p.Records()
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	// Cancel as soon as the first pass reports its second memoryload.
	for rep := 0; rep < 4; rep++ {
		ctx, cancel := context.WithCancel(context.Background())
		cp, err := bmmc.CreateDataset(planConfig)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Execute(ctx, plan, cp, bmmc.WithProgress(func(ev bmmc.PassEvent) {
			if ev.Pass == 1 && ev.Load >= 2 {
				cancel()
			}
		}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("rep %d: Execute returned %v, want context.Canceled", rep, err)
		}
		// The interrupted pass never swapped portions: the stored records
		// are exactly the pre-Execute state, and the Dataset still works.
		got, err := cp.Records()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, before) {
			t.Fatalf("rep %d: canceled Execute disturbed the stored records", rep)
		}
		if _, err := eng.Execute(context.Background(), plan, cp); err != nil {
			t.Fatalf("rep %d: Execute after cancellation: %v", rep, err)
		}
		if err := cp.Verify(bitrev); err != nil {
			t.Fatalf("rep %d: verification after recovered run: %v", rep, err)
		}
		cp.Close()
	}

	// The prefetch reader of every canceled run must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Errorf("goroutine leak: %d before, %d after canceled executions", base, now)
	}

	// A pre-canceled context aborts before any I/O.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ios := p.Stats().ParallelIOs()
	if _, err := eng.Execute(ctx, plan, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Execute returned %v", err)
	}
	if got := p.Stats().ParallelIOs(); got != ios {
		t.Errorf("pre-canceled Execute performed %d parallel I/Os", got-ios)
	}
}

// TestLoadDumpRoundTrip pushes caller-supplied records through Load ->
// Execute -> inverse Execute -> Dump on the file and sharded backends and
// expects the exact input bytes back.
func TestLoadDumpRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend func(t *testing.T) bmmc.Backend
	}{
		{"file", func(t *testing.T) bmmc.Backend { return bmmc.FileBackend(t.TempDir()) }},
		{"sharded", func(t *testing.T) bmmc.Backend {
			return bmmc.ShardedBackend(t.TempDir(), t.TempDir(), t.TempDir())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlanDataset(t, planConfig, bmmc.WithBackend(tc.backend(t)))
			eng := bmmc.NewEngine()
			ctx := context.Background()

			// Arbitrary user records: keys out of order, payload tags that
			// MakeRecord would never produce.
			rng := bmmc.NewRand(99)
			input := make([]byte, planConfig.N*bmmc.RecordBytes)
			for i, key := range rng.Perm(planConfig.N) {
				r := bmmc.Record{Key: uint64(key), Tag: rng.Uint64()}
				r.Encode(input[i*bmmc.RecordBytes:])
			}
			if err := p.Load(ctx, bytes.NewReader(input)); err != nil {
				t.Fatal(err)
			}

			// Load replaces records without counting I/O.
			if got := p.Stats().ParallelIOs(); got != 0 {
				t.Errorf("Load counted %d parallel I/Os", got)
			}

			rot := bmmc.RotateBits(12, 5)
			if _, err := eng.Permute(ctx, p, rot); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Permute(ctx, p, rot.Inverse()); err != nil {
				t.Fatal(err)
			}
			if err := p.Sync(); err != nil {
				t.Fatal(err)
			}

			var out bytes.Buffer
			if err := p.Dump(ctx, &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), input) {
				t.Error("dumped bytes differ from loaded bytes after a permute round trip")
			}

			// Short input is rejected with ErrUnexpectedEOF.
			if err := p.Load(ctx, bytes.NewReader(input[:len(input)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("short Load returned %v, want ErrUnexpectedEOF", err)
			}
			// A canceled Load leaves the stored records untouched.
			canceled, cancel := context.WithCancel(ctx)
			cancel()
			if err := p.Load(canceled, bytes.NewReader(input)); !errors.Is(err, context.Canceled) {
				t.Errorf("canceled Load returned %v", err)
			}
			var out2 bytes.Buffer
			if err := p.Dump(ctx, &out2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out2.Bytes(), input) {
				t.Error("failed Loads disturbed the stored records")
			}
		})
	}
}

// BenchmarkExecutePrepared measures the steady state planning buys: the
// plan is built once outside the loop, so iterations pay only for
// execution.
func BenchmarkExecutePrepared(b *testing.B) {
	ds := newPlanDataset(b, planConfig)
	eng := bmmc.NewEngine()
	plan, err := eng.Plan(planConfig, bmmc.BitReversal(12))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(ctx, plan, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPermuteReplanned is Permute with caching disabled: every
// iteration re-classifies and re-factorizes. The gap to
// BenchmarkExecutePrepared is the planning cost Execute amortizes away.
func BenchmarkPermuteReplanned(b *testing.B) {
	ds := newPlanDataset(b, planConfig)
	eng := bmmc.NewEngine(bmmc.WithPlanCache(0))
	bitrev := bmmc.BitReversal(12)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Permute(ctx, ds, bitrev); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanForMatchesPermuterPlan pins the Engine-free planning entry
// point: PlanFor builds the same plan Engine.Plan does — identical class,
// pass structure, and cost — and the resulting plan executes on any
// Dataset with the same Config, producing the quoted cost and records.
func TestPlanForMatchesPermuterPlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		perm bmmc.Permutation
	}{
		{"bitrev", bmmc.BitReversal(12)},
		{"gray", bmmc.GrayCode(12)},
		{"vecrev", bmmc.VectorReversal(12)},
		{"identity", bmmc.Identity(12)},
		{"random", bmmc.RandomPermutation(bmmc.NewRand(23), 12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			free, err := bmmc.PlanFor(planConfig, tc.perm, true)
			if err != nil {
				t.Fatal(err)
			}
			p := newPlanDataset(t, planConfig)
			eng := bmmc.NewEngine()
			bound, err := eng.Plan(planConfig, tc.perm)
			if err != nil {
				t.Fatal(err)
			}
			if free.Class() != bound.Class() || free.PassCount() != bound.PassCount() ||
				free.CostIOs() != bound.CostIOs() || free.FusedFrom() != bound.FusedFrom() {
				t.Fatalf("PlanFor %v != Engine.Plan %v", free, bound)
			}
			rep, err := eng.Execute(context.Background(), free, p)
			if err != nil {
				t.Fatalf("executing a PlanFor plan: %v", err)
			}
			if rep.ParallelIOs != free.CostIOs() {
				t.Fatalf("executed %d parallel I/Os, plan quoted %d", rep.ParallelIOs, free.CostIOs())
			}
			if err := p.Verify(tc.perm); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Geometry validation happens up front.
	if _, err := bmmc.PlanFor(bmmc.Config{N: 100, D: 4, B: 8, M: 256}, bmmc.GrayCode(6), true); err == nil {
		t.Fatal("PlanFor accepted an invalid geometry")
	}
	if _, err := bmmc.PlanFor(planConfig, bmmc.GrayCode(6), true); err == nil {
		t.Fatal("PlanFor accepted a width-mismatched permutation")
	}
}

// TestPlanCacheWidthCheck pins the shared-cache validation: the cache key
// omits lg N (the pass structure depends only on the permutation and
// lg B / lg M), so a cache hit must still reject a permutation whose width
// does not match the requested geometry — otherwise a daemon sharing one
// Engine across tenants would execute a wrong-sized plan.
func TestPlanCacheWidthCheck(t *testing.T) {
	eng := bmmc.NewEngine(bmmc.WithPlanCache(8))
	p12 := bmmc.BitReversal(12)
	cfg12 := bmmc.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	cfg16 := bmmc.Config{N: 1 << 16, D: 4, B: 8, M: 1 << 8} // same lg B, lg M

	if pl, err := eng.Plan(cfg12, p12); err != nil || pl.Cached() {
		t.Fatalf("cold Plan: %v err=%v", pl, err)
	}
	// Same permutation, wider geometry: identical cache key, but the hit
	// path must still reject the width mismatch.
	if _, err := eng.Plan(cfg16, p12); err == nil {
		t.Fatal("Plan accepted a 12-bit permutation on a 16-bit geometry via the cache")
	}
	// The legitimate repeat is a hit with full stats.
	pl, err := eng.Plan(cfg12, p12)
	if err != nil || !pl.Cached() {
		t.Fatalf("repeat Plan: %v err=%v", pl, err)
	}
	if pl.Geometry() != cfg12 {
		t.Fatalf("cached plan misstamped: geometry=%v", pl.Geometry())
	}
	if cs := eng.CacheStats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", cs)
	}
}
