package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gf2"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// These tests pin the pass runner's core invariant: pipelining and
// concurrent dispatch (one goroutine per transfer) change wall-clock
// behavior only. For every workload the final records AND the full Stats() —
// parallel read/write operation counts and the per-disk block totals —
// must be identical to a sequential single-threaded run.

// seqOpt is the reference mode: no prefetch, one goroutine.
var seqOpt = Options{sequential: true}

// pipeOpt exercises the three-stage pipeline: prefetch reader, scatter,
// writer.
var pipeOpt = Options{}

// runBoth executes the same workload sequentially on a RAM-backed system
// and pipelined on a file-backed system with concurrent dispatch,
// then asserts records and stats agree.
func runBoth(t *testing.T, cfg pdm.Config, what string, run func(*pdm.System, Options) error) {
	t.Helper()

	ram, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ram.Close()
	if err := LoadSequential(ram); err != nil {
		t.Fatal(err)
	}
	if err := run(ram, seqOpt); err != nil {
		t.Fatalf("%s sequential: %v", what, err)
	}
	wantRecs, err := ram.DumpRecords(ram.Source())
	if err != nil {
		t.Fatal(err)
	}

	file, err := pdm.NewSystem(cfg, pdm.FileBackend(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	file.SetConcurrent(true)
	if err := LoadSequential(file); err != nil {
		t.Fatal(err)
	}
	if err := run(file, pipeOpt); err != nil {
		t.Fatalf("%s pipelined: %v", what, err)
	}
	gotRecs, err := file.DumpRecords(file.Source())
	if err != nil {
		t.Fatal(err)
	}

	for i := range wantRecs {
		if wantRecs[i] != gotRecs[i] {
			t.Fatalf("%s: records diverge at address %d (sequential %d, pipelined %d)",
				what, i, wantRecs[i].Key, gotRecs[i].Key)
		}
	}
	if ws, gs := ram.Stats(), file.Stats(); !reflect.DeepEqual(ws, gs) {
		t.Errorf("%s: stats diverge:\nsequential: %+v\npipelined:  %+v", what, ws, gs)
	}
	if ram.Source() != file.Source() {
		t.Errorf("%s: portion roles diverge (%v vs %v)", what, ram.Source(), file.Source())
	}
}

func TestPipelinedFileBackedMatchesSequentialRAM(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(321))
	n, b, m := cfg.LgN(), cfg.LgB(), cfg.LgM()

	mrc := perm.MustNew(gf2.RandomMRC(rng, n, m), gf2.RandomVec(rng, n))
	runBoth(t, cfg, "MRC", func(sys *pdm.System, opt Options) error {
		return RunMRCPass(context.Background(), sys, mrc, opt)
	})

	mld := randomMLD(rng, n, b, m)
	runBoth(t, cfg, "MLD", func(sys *pdm.System, opt Options) error {
		return RunMLDPass(context.Background(), sys, mld, opt)
	})

	inv := randomMLD(rng, n, b, m).Inverse()
	runBoth(t, cfg, "inverse-MLD", func(sys *pdm.System, opt Options) error {
		return RunMLDInversePass(context.Background(), sys, inv, opt)
	})

	bmmc := perm.MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
	runBoth(t, cfg, "factored BMMC", func(sys *pdm.System, opt Options) error {
		_, err := runFactored(context.Background(), sys, bmmc, opt)
		return err
	})
}

func TestPipelinedBaselinesMatchSequential(t *testing.T) {
	cfg := pdm.Config{N: 1 << 11, D: 4, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(322))
	target := rng.Perm(cfg.N)
	targetOf := func(x uint64) uint64 { return uint64(target[x]) }

	runBoth(t, cfg, "merge sort", func(sys *pdm.System, opt Options) error {
		_, err := GeneralPermute(context.Background(), sys, targetOf, opt)
		return err
	})
	runBoth(t, cfg, "naive gather", func(sys *pdm.System, opt Options) error {
		_, err := NaivePermute(context.Background(), sys, targetOf, opt)
		return err
	})
}

// TestPipelinedChainedPasses runs a multi-pass chain (odd and even pass
// counts, swapping portions) under the pipelined runner and verifies the
// composite permutation landed correctly.
func TestPipelinedChainedPasses(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	sys, err := pdm.NewSystem(cfg, pdm.FileBackend(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.SetConcurrent(true)
	if err := LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	n := cfg.LgN()
	p1 := perm.GrayCode(n)
	p2 := perm.BitReversal(n)
	if err := RunMRCPass(context.Background(), sys, p1, pipeOpt); err != nil {
		t.Fatal(err)
	}
	if _, err := runFactored(context.Background(), sys, p2, pipeOpt); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBMMC(sys, sys.Source(), p2.Compose(p1)); err != nil {
		t.Fatal(err)
	}
}

// scatterHook wraps a strategy so that hook runs once the scatter of load
// at has returned.
type scatterHook struct {
	passStrategy
	at   int
	hook func()
}

func (s scatterHook) scatter(ml int, plan loadPlan, in, out *pdm.Buffer) ([][]pdm.BlockIO, error) {
	writes, err := s.passStrategy.scatter(ml, plan, in, out)
	if ml == s.at {
		s.hook()
	}
	return writes, err
}

// TestPipelineWritesBehindScatter pins the write-behind stage: under the
// pipeline, load 0's writes are still in flight while load 1 scatters. The
// observer of the pass's first write sample blocks until the scatter of
// load 1 has returned. A runner that writes a load on the goroutine that
// scatters the next one reaches that scatter only after the write, so the
// observer gives up after 5 s and the test fails instead of hanging.
func TestPipelineWritesBehindScatter(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(323))
	p := perm.MustNew(gf2.RandomMRC(rng, cfg.LgN(), cfg.LgM()), gf2.RandomVec(rng, cfg.LgN()))

	scattered := make(chan struct{})
	var armed atomic.Bool
	var first sync.Once
	overlapped := make(chan bool, 1)
	sys, err := pdm.NewSystem(cfg, pdm.InstrumentBackend(pdm.MemBackend(), func(s pdm.OpSample) {
		if s.Op != "write" || !armed.Load() {
			return
		}
		first.Do(func() {
			select {
			case <-scattered:
				overlapped <- true
			case <-time.After(5 * time.Second):
				overlapped <- false
			}
		})
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	applier := p.Compile()
	st := scatterHook{
		passStrategy: &mrcStrategy{cfg: cfg, applier: applier, run: runLength(applier.RunBits(), cfg.LgM())},
		at:           1,
		hook:         func() { close(scattered) },
	}
	if err := runPass(context.Background(), sys, st, pipeOpt); err != nil {
		t.Fatal(err)
	}
	sys.SwapPortions()
	if !<-overlapped {
		t.Error("load 0's first write finished before load 1 scattered: the write stage did not overlap the next scatter")
	}

	ref, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := LoadSequential(ref); err != nil {
		t.Fatal(err)
	}
	if err := RunMRCPass(context.Background(), ref, p, seqOpt); err != nil {
		t.Fatal(err)
	}
	want, err := ref.DumpRecords(ref.Source())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.DumpRecords(sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("write-behind records differ from a sequential run")
	}
	if ws, gs := ref.Stats(), sys.Stats(); !reflect.DeepEqual(ws, gs) {
		t.Errorf("stats diverge:\nsequential: %+v\npipelined:  %+v", ws, gs)
	}
}

// TestPipelinedProgressFollowsWrites pins the Progress contract that the
// daemon's per-pass I/O attribution depends on: each completed-load event
// fires after that load's writes are counted and before any later load's
// writes. So on every runner path the write count seen at each event, and
// the events themselves, are the same pipelined as sequential, and no two
// callbacks overlap.
func TestPipelinedProgressFollowsWrites(t *testing.T) {
	type mark struct {
		ev     PassEvent
		writes int
	}
	for _, path := range chaosPathsFor(chaosCfg) {
		var marks [2][]mark
		for i, opt := range []Options{seqOpt, pipeOpt} {
			sys, err := pdm.NewMemSystem(chaosCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := LoadSequential(sys); err != nil {
				t.Fatal(err)
			}
			var inCallback, overlap atomic.Bool
			opt.Progress = func(ev PassEvent) {
				if !inCallback.CompareAndSwap(false, true) {
					overlap.Store(true)
					return
				}
				marks[i] = append(marks[i], mark{ev, sys.Stats().ParallelWrites})
				inCallback.Store(false)
			}
			err = path.run(context.Background(), sys, opt)
			sys.Close()
			if err != nil {
				t.Fatalf("%s: %v", path.name, err)
			}
			if overlap.Load() {
				t.Errorf("%s: progress callbacks overlapped", path.name)
			}
		}
		if !reflect.DeepEqual(marks[0], marks[1]) {
			t.Errorf("%s: events and write counts differ:\nsequential: %v\npipelined:  %v", path.name, marks[0], marks[1])
		}
	}
}

// TestStatsPollingDuringPipelinedRun: Stats() may be called from another
// goroutine while a pipelined pass is in flight (e.g. a progress monitor);
// under -race this pins that the snapshot path is synchronized with the
// prefetch reader's counter updates.
func TestStatsPollingDuringPipelinedRun(t *testing.T) {
	cfg := pdm.Config{N: 1 << 13, D: 4, B: 8, M: 1 << 8}
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := runFactored(context.Background(), sys, perm.BitReversal(cfg.LgN()), pipeOpt)
		done <- err
	}()
	var last int
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.Stats().ParallelIOs(); got < last {
				t.Fatalf("final I/O count %d below observed %d", got, last)
			}
			return
		default:
			if got := sys.Stats().ParallelIOs(); got < last {
				t.Fatalf("I/O count went backwards: %d after %d", got, last)
			} else {
				last = got
			}
		}
	}
}

// TestRunnerErrorPropagation: an I/O error raised mid-pass on the prefetch
// reader surfaces as an error (with the injected-fault sentinel intact)
// instead of deadlocking or corrupting the pipeline. The fault backend is
// disarmed while LoadSequential writes the input, so failAt counts only the
// pass's own transfers.
func TestRunnerErrorPropagation(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	for _, failAt := range []int{0, 3, cfg.Stripes() - 1} {
		faulty := pdm.NewFaultyBackend(pdm.MemBackend(), failAt)
		sys, err := pdm.NewSystem(cfg, faulty)
		if err != nil {
			t.Fatal(err)
		}
		faulty.Disarm()
		if err := LoadSequential(sys); err != nil {
			sys.Close()
			t.Fatal(err)
		}
		faulty.Arm()
		err = RunMRCPass(context.Background(), sys, perm.GrayCode(cfg.LgN()), pipeOpt)
		sys.Close()
		if !errors.Is(err, pdm.ErrInjectedFault) {
			t.Fatalf("failAt=%d: fault did not surface: %v", failAt, err)
		}
	}
}

// TestRunnerClassChecksUnderOptions: the per-engine class checks still
// reject wrong-class permutations before any I/O regardless of options.
func TestRunnerClassChecksUnderOptions(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	p := perm.BitReversal(cfg.LgN())
	for _, opt := range []Options{seqOpt, pipeOpt} {
		if err := RunMRCPass(context.Background(), sys, p, opt); err == nil {
			t.Fatal("bit reversal accepted as MRC")
		}
		if err := RunMLDPass(context.Background(), sys, p, opt); err == nil {
			t.Fatal("bit reversal accepted as MLD")
		}
		if p.Inverse().IsMLD(cfg.LgB(), cfg.LgM()) {
			continue
		}
		if err := RunMLDInversePass(context.Background(), sys, p, opt); err == nil {
			t.Fatal("bit reversal accepted as inverse-MLD")
		}
	}
	if got := sys.Stats().ParallelIOs(); got != 0 {
		t.Errorf("rejected runs consumed %d parallel I/Os", got)
	}
}
