package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Chaos conformance suite: every engine path — MRC, MLD, inverse-MLD, the
// multi-pass BMMC driver, general merge sort, the naive gather baseline —
// across grouped and ungrouped I/O, record and run kernels, and mem/file
// backends, exercised under injected faults, torn ranges, and latency
// skew. The invariants pinned here:
//
//   - every injected failure surfaces wrapping pdm.ErrInjectedFault;
//   - a failed pass never swaps portions: the source records are exactly
//     what the last completed pass left (the canonical input when the
//     fault lands in pass 1), and the system stays fully usable;
//   - a zero-fault chaos seed is byte-identical — records, Stats, trace —
//     to a clean run;
//   - torn range transfers never corrupt: the grouped path's fallback
//     replays them whole, the run completes, and the accounting matches a
//     clean run exactly;
//   - cancellation lands between memoryloads even when one disk is 10x
//     slower, without goroutine leaks.

// chaosPath is one engine path under test, with its own verifier.
type chaosPath struct {
	name   string
	run    func(context.Context, *pdm.System, Options) error
	verify func(*pdm.System) error
}

// chaosPathsFor builds all engine paths at the given geometry from a fixed
// seed, so every caller drives the identical permutations.
func chaosPathsFor(cfg pdm.Config) []chaosPath {
	rng := rand.New(rand.NewSource(99))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()
	mrc := perm.MustNew(gf2.RandomMRC(rng, n, m), gf2.RandomVec(rng, n))
	mld := randomMLD(rng, n, b, m)
	inv := randomMLD(rng, n, b, m).Inverse()
	bmmc := perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
	target := rng.Perm(cfg.N)
	targetOf := func(x uint64) uint64 { return uint64(target[x]) }
	return []chaosPath{
		{"MRC", func(ctx context.Context, sys *pdm.System, opt Options) error {
			return RunMRCPass(ctx, sys, mrc, opt)
		}, func(sys *pdm.System) error { return VerifyBMMC(sys, sys.Source(), mrc) }},
		{"MLD", func(ctx context.Context, sys *pdm.System, opt Options) error {
			return RunMLDPass(ctx, sys, mld, opt)
		}, func(sys *pdm.System) error { return VerifyBMMC(sys, sys.Source(), mld) }},
		{"invMLD", func(ctx context.Context, sys *pdm.System, opt Options) error {
			return RunMLDInversePass(ctx, sys, inv, opt)
		}, func(sys *pdm.System) error { return VerifyBMMC(sys, sys.Source(), inv) }},
		{"BMMC", func(ctx context.Context, sys *pdm.System, opt Options) error {
			_, err := runFactored(ctx, sys, bmmc, opt)
			return err
		}, func(sys *pdm.System) error { return VerifyBMMC(sys, sys.Source(), bmmc) }},
		{"sort", func(ctx context.Context, sys *pdm.System, opt Options) error {
			_, err := GeneralPermute(ctx, sys, targetOf, opt)
			return err
		}, func(sys *pdm.System) error { return VerifyMapping(sys, sys.Source(), targetOf) }},
		{"naive", func(ctx context.Context, sys *pdm.System, opt Options) error {
			_, err := NaivePermute(ctx, sys, targetOf, opt)
			return err
		}, func(sys *pdm.System) error { return VerifyMapping(sys, sys.Source(), targetOf) }},
	}
}

var chaosCfg = pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}

// canonicalRecords returns what LoadSequential stores.
func canonicalRecords(cfg pdm.Config) []pdm.Record {
	recs := make([]pdm.Record, cfg.N)
	for i := range recs {
		recs[i] = pdm.MakeRecord(uint64(i))
	}
	return recs
}

// TestChaosEngineFaultSurfacesEveryPath: a flaky backend faulting in pass
// 1 makes every engine path on every backend kind fail with a wrapped
// pdm.ErrInjectedFault, leave the source portion exactly as loaded (no
// mid-pass portion swap), and stay usable: after the fault window the same
// system runs the same permutation cleanly and verifies. The fault lands
// either early or, write-only, on the final write batch of pass 1, which
// the pipeline's writer goroutine issues after the last scatter: a pass
// must not report success before that write is counted.
func TestChaosEngineFaultSurfacesEveryPath(t *testing.T) {
	canonical := canonicalRecords(chaosCfg)
	for _, backend := range []struct {
		name string
		make func(t *testing.T) pdm.Backend
	}{
		{"mem", func(t *testing.T) pdm.Backend { return pdm.MemBackend() }},
		{"file", func(t *testing.T) pdm.Backend { return pdm.FileBackend(t.TempDir()) }},
	} {
		for _, path := range chaosPathsFor(chaosCfg) {
			t.Run(backend.name+"/"+path.name, func(t *testing.T) {
				for _, fault := range []struct {
					name string
					opts pdm.FlakyOptions
				}{
					{"early", pdm.FlakyOptions{FailAfterN: 3}},
					{"last-write-of-pass-1", pdm.FlakyOptions{
						Mode:       pdm.FaultWriteOnly,
						FailAfterN: lastWriteOfPass1(t, path) + 1,
					}},
				} {
					t.Run(fault.name, func(t *testing.T) {
						fb := pdm.NewFlakyBackend(backend.make(t), fault.opts)
						sys, err := pdm.NewSystem(chaosCfg, fb)
						if err != nil {
							t.Fatal(err)
						}
						defer sys.Close()
						sys.SetConcurrent(true)
						fb.Disarm()
						if err := LoadSequential(sys); err != nil {
							t.Fatal(err)
						}
						fb.Arm()

						err = path.run(context.Background(), sys, pipeOpt)
						if !errors.Is(err, pdm.ErrInjectedFault) {
							t.Fatalf("want wrapped pdm.ErrInjectedFault, got %v", err)
						}

						// No portion swap happened, and the source records are
						// untouched: the fault hit pass 1, whose source is the input.
						fb.Disarm()
						got, derr := sys.DumpRecords(sys.Source())
						if derr != nil {
							t.Fatal(derr)
						}
						if !reflect.DeepEqual(got, canonical) {
							t.Fatal("failed pass disturbed the source records")
						}

						// The system remains usable: the same run, now clean, verifies.
						if err := path.run(context.Background(), sys, pipeOpt); err != nil {
							t.Fatalf("clean run after fault: %v", err)
						}
						if err := path.verify(sys); err != nil {
							t.Fatalf("verification after recovery: %v", err)
						}
					})
				}
			})
		}
	}
}

// lastWriteOfPass1 returns the 0-based ordinal, among the armed backend
// operations of a clean sequential run of path, of the first operation of
// pass 1's final write batch. Sequentially, pass 1's operations end with
// its last load's writes, right after that load's reads; the pipeline
// issues the same operations, so the same ordinal opens that batch there.
func lastWriteOfPass1(t *testing.T, path chaosPath) int {
	t.Helper()
	log := &pdm.ChaosLog{}
	fb := pdm.NewFlakyBackend(pdm.MemBackend(), pdm.FlakyOptions{Log: log})
	sys, err := pdm.NewSystem(chaosCfg, fb)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	fb.Disarm()
	if err := LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	fb.Arm()
	pass1 := -1
	opt := seqOpt
	opt.Progress = func(ev PassEvent) {
		if ev.Pass == 1 && ev.Load == ev.Loads {
			pass1 = log.Len()
		}
	}
	if err := path.run(context.Background(), sys, opt); err != nil {
		t.Fatal(err)
	}
	if pass1 < 0 {
		t.Fatalf("%s: pass 1 never completed", path.name)
	}
	ops := log.Ops()[:pass1]
	k := len(ops)
	for k > 0 && ops[k-1].Kind == pdm.IOWrite {
		k--
	}
	if k == len(ops) || k == 0 {
		t.Fatalf("%s: pass 1 does not end with writes after reads", path.name)
	}
	return k
}

// TestChaosEngineKernelGroupingMatrix drives the fault-and-recover cycle
// through every combination of scatter kernel (run-coalescing vs
// per-record) and I/O shape (grouped range transfers vs one-at-a-time),
// pinning that injection semantics do not depend on which inner loop or
// I/O path the runner picked. The ungrouped shape stacks a torn-range
// adversary at rate 1 under the flaky one, so every coalesced group
// replays wave by wave.
func TestChaosEngineKernelGroupingMatrix(t *testing.T) {
	defer func(rk bool) { forceRecordKernel = rk }(forceRecordKernel)
	paths := chaosPathsFor(chaosCfg)
	for _, recordKernel := range []bool{false, true} {
		for _, ungrouped := range []bool{false, true} {
			name := map[bool]string{false: "run", true: "record"}[recordKernel] +
				"/" + map[bool]string{false: "grouped", true: "ungrouped"}[ungrouped]
			t.Run(name, func(t *testing.T) {
				forceRecordKernel = recordKernel
				for _, path := range paths[:4] { // MRC, MLD, invMLD, BMMC use the runner's kernels
					inner := pdm.MemBackend()
					if ungrouped {
						inner = pdm.NewTornRangeBackend(inner, pdm.TornOptions{Rate: 1})
					}
					fb := pdm.NewFlakyBackend(inner, pdm.FlakyOptions{FailAfterN: 5})
					sys, err := pdm.NewSystem(chaosCfg, fb)
					if err != nil {
						t.Fatal(err)
					}
					fb.Disarm()
					if err := LoadSequential(sys); err != nil {
						sys.Close()
						t.Fatal(err)
					}
					fb.Arm()
					if err := path.run(context.Background(), sys, pipeOpt); !errors.Is(err, pdm.ErrInjectedFault) {
						sys.Close()
						t.Fatalf("%s: want wrapped fault, got %v", path.name, err)
					}
					fb.Disarm()
					if err := path.run(context.Background(), sys, seqOpt); err != nil {
						sys.Close()
						t.Fatalf("%s clean rerun: %v", path.name, err)
					}
					if err := path.verify(sys); err != nil {
						sys.Close()
						t.Fatalf("%s verify: %v", path.name, err)
					}
					sys.Close()
				}
			})
		}
	}
}

// TestChaosEngineZeroFaultByteIdentical: a chaos stack whose seed produces
// zero faults (all rates zero, zero latency) is indistinguishable from a
// clean run — same records, same Stats, and under sequential execution the
// identical trace, operation for operation.
func TestChaosEngineZeroFaultByteIdentical(t *testing.T) {
	paths := chaosPathsFor(chaosCfg)
	for _, opt := range []struct {
		name string
		opts Options
	}{{"sequential", seqOpt}, {"pipelined", pipeOpt}} {
		t.Run(opt.name, func(t *testing.T) {
			for _, path := range paths {
				clean, err := pdm.NewMemSystem(chaosCfg)
				if err != nil {
					t.Fatal(err)
				}
				cleanTrace := (&pdm.Trace{}).Attach(clean)
				chaotic, err := pdm.NewSystem(chaosCfg,
					pdm.NewFlakyBackend(
						pdm.NewTornRangeBackend(
							pdm.NewLatencyBackend(pdm.MemBackend(), pdm.LatencyOptions{Seed: 17}),
							pdm.TornOptions{Seed: 17}),
						pdm.FlakyOptions{Seed: 17}))
				if err != nil {
					t.Fatal(err)
				}
				chaosTrace := (&pdm.Trace{}).Attach(chaotic)
				for _, sys := range []*pdm.System{clean, chaotic} {
					if err := LoadSequential(sys); err != nil {
						t.Fatal(err)
					}
					if err := path.run(context.Background(), sys, opt.opts); err != nil {
						t.Fatalf("%s: %v", path.name, err)
					}
				}
				wantRecs, err := clean.DumpRecords(clean.Source())
				if err != nil {
					t.Fatal(err)
				}
				gotRecs, err := chaotic.DumpRecords(chaotic.Source())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantRecs, gotRecs) {
					t.Fatalf("%s: zero-fault chaos records differ from clean run", path.name)
				}
				if ws, gs := clean.Stats(), chaotic.Stats(); !reflect.DeepEqual(ws, gs) {
					t.Fatalf("%s: zero-fault chaos stats differ:\nclean: %+v\nchaos: %+v", path.name, ws, gs)
				}
				// The trace's operation order is deterministic only without
				// pipelining; sequential runs must match entry for entry.
				if opt.name == "sequential" && !reflect.DeepEqual(cleanTrace.Entries, chaosTrace.Entries) {
					t.Fatalf("%s: zero-fault chaos trace differs from clean run", path.name)
				}
				clean.Close()
				chaotic.Close()
			}
		})
	}
}

// TestChaosEngineTornRangeRecovers: with every multi-block range transfer
// torn (rate 1), the grouped I/O path degrades to per-block replay on
// every group — and the whole run still completes with records and Stats
// identical to a clean run. Torn ranges cost wall-clock, never
// correctness or accounting.
func TestChaosEngineTornRangeRecovers(t *testing.T) {
	for _, path := range chaosPathsFor(chaosCfg) {
		clean, err := pdm.NewMemSystem(chaosCfg)
		if err != nil {
			t.Fatal(err)
		}
		torn, err := pdm.NewSystem(chaosCfg,
			pdm.NewTornRangeBackend(pdm.MemBackend(), pdm.TornOptions{Seed: 5, Rate: 1}))
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []*pdm.System{clean, torn} {
			if err := LoadSequential(sys); err != nil {
				t.Fatal(err)
			}
			if err := path.run(context.Background(), sys, pipeOpt); err != nil {
				t.Fatalf("%s under torn ranges: %v", path.name, err)
			}
		}
		if err := path.verify(torn); err != nil {
			t.Fatalf("%s: torn-range run does not verify: %v", path.name, err)
		}
		wantRecs, _ := clean.DumpRecords(clean.Source())
		gotRecs, _ := torn.DumpRecords(torn.Source())
		if !reflect.DeepEqual(wantRecs, gotRecs) {
			t.Fatalf("%s: torn-range records differ from clean run", path.name)
		}
		if ws, gs := clean.Stats(), torn.Stats(); !reflect.DeepEqual(ws, gs) {
			t.Fatalf("%s: torn-range stats differ:\nclean: %+v\ntorn:  %+v", path.name, ws, gs)
		}
		clean.Close()
		torn.Close()
	}
}

// TestChaosEngineCancelOnSlowDisk: cancellation lands between memoryloads
// even when one disk is 10x slower than its peers, the failed pass leaves
// the source records untouched, and no goroutines leak.
func TestChaosEngineCancelOnSlowDisk(t *testing.T) {
	baseline := runtime.NumGoroutine()
	lb := pdm.NewLatencyBackend(pdm.MemBackend(), pdm.LatencyOptions{
		Seed:        21,
		PerBlock:    200 * time.Microsecond,
		DiskFactors: []float64{10, 1, 1, 1},
	})
	sys, err := pdm.NewSystem(chaosCfg, lb)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.SetConcurrent(true)
	lb.Disarm()
	if err := LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	lb.Arm()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := pipeOpt
	opt.Progress = func(e PassEvent) {
		if e.Load >= 2 {
			cancel()
		}
	}
	rng := rand.New(rand.NewSource(99))
	mrc := perm.MustNew(gf2.RandomMRC(rng, chaosCfg.LgN(), chaosCfg.LgM()), gf2.RandomVec(rng, chaosCfg.LgN()))
	if err := RunMRCPass(ctx, sys, mrc, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// The canceled pass never swapped portions; the source is untouched.
	lb.Disarm()
	got, err := sys.DumpRecords(sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, canonicalRecords(chaosCfg)) {
		t.Fatal("canceled pass disturbed the source records")
	}

	// And the system still completes the permutation when asked again.
	if err := RunMRCPass(context.Background(), sys, mrc, pipeOpt); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBMMC(sys, sys.Source(), mrc); err != nil {
		t.Fatal(err)
	}

	// Drained prefetcher, no stragglers: goroutines return to baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak after canceled chaos run: %d > baseline %d", n, baseline)
	}
}

// TestChaosLatencySkewPipelineWins is the CI latency-skew smoke: with one
// of four disks 10x slower, the pipelined run (prefetch overlap plus
// concurrent per-disk dispatch, which overlaps the skewed per-disk delays
// the way independent spindles would) must still beat the fully sequential
// run on wall-clock.
func TestChaosLatencySkewPipelineWins(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 9}
	rng := rand.New(rand.NewSource(99))
	mrc := perm.MustNew(gf2.RandomMRC(rng, cfg.LgN(), cfg.LgM()), gf2.RandomVec(rng, cfg.LgN()))
	timeRun := func(opts Options, concurrent bool) time.Duration {
		lb := pdm.NewLatencyBackend(pdm.MemBackend(), pdm.LatencyOptions{
			Seed:        8,
			PerBlock:    100 * time.Microsecond,
			DiskFactors: []float64{10, 1, 1, 1},
		})
		sys, err := pdm.NewSystem(cfg, lb)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.SetConcurrent(concurrent)
		lb.Disarm()
		if err := LoadSequential(sys); err != nil {
			t.Fatal(err)
		}
		lb.Arm()
		start := time.Now()
		if err := RunMRCPass(context.Background(), sys, mrc, opts); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if err := VerifyBMMC(sys, sys.Source(), mrc); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	sequential := timeRun(seqOpt, false)
	pipelined := timeRun(pipeOpt, true)
	t.Logf("one pass, disk 0 at 10x latency: sequential %v, pipelined %v", sequential, pipelined)
	if pipelined >= sequential {
		t.Fatalf("pipelined run (%v) did not beat sequential (%v) under latency skew", pipelined, sequential)
	}
}
