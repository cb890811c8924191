// Package engine executes permutations on a simulated parallel disk system.
// It has six entry points, all taking Options: the plan executor RunPlan
// (which runs whatever pass list factor.Dispatch or a caller built), the
// three one-pass executors RunMRCPass, RunMLDPass and RunMLDInversePass,
// and two baselines — GeneralPermute (striped external merge sort for
// general permutations) and NaivePermute (a record-gather scheme realizing
// the N/D term, also the tests' oracle).
//
// Every engine reads records from the system's source portion and writes
// the permuted records to the target portion, then swaps the portion roles,
// exactly as the paper chains one-pass permutations.
//
// # The pass runner
//
// All engines execute through a single pipelined pass runner. A pass is a
// sequence of loads (usually memoryloads), each processed in three stages:
// read the load's blocks from the source portion into an input buffer,
// scatter the records to their target positions in an output buffer, and
// write the assembled blocks to the target portion. Each engine contributes
// only a small strategy — its class check plus its block-placement rule —
// and the runner supplies the execution machinery:
//
//   - Double-buffered prefetch: a reader goroutine fetches load k+1 while
//     load k is being scattered and written. This is safe because one-pass
//     algorithms read one portion and write the disjoint other portion, so
//     consecutive loads touch independent disk regions.
//   - Parallel scatter: the per-record applier.Apply loop is sharded across
//     a worker pool (runtime.GOMAXPROCS by default). Shards write disjoint
//     target positions because the address map is a permutation.
//
// The invariant the runner maintains — asserted by the equivalence tests —
// is that pipelining and worker sharding change only wall-clock time. The
// model's cost metric is untouched: parallel-I/O counts, per-disk totals,
// pass structure, and the trace's operation multiset are identical to a
// sequential run, because every block still moves through exactly one
// counted parallel I/O.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/pdm"
)

// PassEvent is one progress report from the pass runner: load Load of
// Loads in pass Pass of Passes has completed (Load 0 marks the start of a
// pass). Kind names the pass's algorithm ("MRC", "MLD", "MLD^-1", "sort",
// "naive"). Kernel names the scatter inner loop the runner picked for the
// pass: "record" (one Apply per record), "runN" (run-coalescing — one
// Apply plus one copy per N-record contiguous run), or the algorithm's own
// loop for the baselines ("sort", "merge", "pull"). Multi-pass drivers
// stamp Pass/Passes; a directly-invoked single pass reports
// Pass = Passes = 1.
type PassEvent struct {
	Pass   int    // 1-based pass number within the run
	Passes int    // total passes in the run
	Kind   string // pass algorithm name
	Kernel string // scatter kernel the pass executes with
	Load   int    // memoryloads completed so far in this pass
	Loads  int    // total loads in the pass
}

// Options control how the pass runner executes, without affecting what it
// computes: results and parallel-I/O counts are identical for every
// setting. The zero value means sequential single-threaded execution;
// DefaultOptions enables the pipeline and a full worker pool.
type Options struct {
	// Pipeline prefetches the next load on a reader goroutine while the
	// current one is permuted and written, overlapping read latency with
	// compute and write latency.
	Pipeline bool
	// Workers is the number of goroutines sharding each in-memory scatter.
	// Zero or negative selects runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, receives a PassEvent at the start of every
	// pass and after every completed memoryload. Callbacks run on the
	// pass's main goroutine between counted parallel I/Os, so they must be
	// cheap; they never run concurrently with each other for one run.
	Progress func(PassEvent)
}

// DefaultOptions returns the default execution mode: pipelined, with one
// scatter worker per available CPU.
func DefaultOptions() Options { return Options{Pipeline: true, Workers: 0} }

func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// loadPlan describes one load of a pass: the parallel reads that fetch it
// into an input buffer, the number of independently shardable scatter
// units, and strategy-private state computed during planning. Plans are
// produced on the reader goroutine and handed to the scatter/write stages,
// so a strategy must keep per-load state here rather than on itself.
type loadPlan struct {
	// reads holds the parallel read operations fetching the load. The
	// runner consumes it during the read stage only, so a strategy may
	// reuse the backing arrays for later loads (see retargetStriped);
	// ctx, by contrast, stays live until the load's writes complete.
	reads [][]pdm.BlockIO
	units int // shardable scatter units (records, frames, pulls)
	ctx   any // strategy-private per-load state
}

// passStrategy is the part of a pass that differs between engines: how many
// loads there are, which blocks each load reads, how records scatter from
// the input buffer to the output buffer, and which blocks to write.
type passStrategy interface {
	// kind names the pass's algorithm for progress reporting.
	kind() string
	// kernel names the scatter inner loop the strategy selected for this
	// pass (see PassEvent.Kernel).
	kernel() string
	// loads returns the number of loads in the pass.
	loads() int
	// prepare plans load ml. It runs on the reader goroutine when
	// pipelining, so it must not touch state shared with scatter/writes of
	// earlier loads except through the returned plan.
	prepare(ml int) (loadPlan, error)
	// scatter moves units [lo, hi) of load ml from in to out. Multiple
	// shards run concurrently on disjoint unit ranges; the returned value
	// carries shard-local observations for writes to merge.
	scatter(ml int, plan loadPlan, in, out *pdm.Buffer, lo, hi int) (any, error)
	// writes merges the shard results, validates the pass's invariants,
	// and returns the parallel writes that emit load ml from out. Shards
	// skipped because the unit range was exhausted appear as nil.
	writes(ml int, plan loadPlan, shards []any) ([][]pdm.BlockIO, error)
}

// runPass executes a full pass of st over sys: every load is read from the
// source portion, scattered, and written to the target portion. The caller
// remains responsible for SwapPortions.
//
// Cancellation: ctx is checked between memoryloads (a pass never aborts a
// counted parallel I/O halfway). On cancellation the prefetch reader is
// unblocked and drained before returning, so no goroutine or buffer
// outlives the call, the source portion is untouched, and — because the
// caller only swaps portions on success — the system remains usable.
func runPass(ctx context.Context, sys *pdm.System, st passStrategy, opt Options) error {
	src, tgt := sys.Source(), sys.Target()
	loads := st.loads()
	out := sys.AcquireBuffer()
	opt.emit(st.kind(), st.kernel(), 0, loads)

	if !opt.Pipeline {
		in := sys.AcquireBuffer()
		for ml := 0; ml < loads; ml++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			plan, err := st.prepare(ml)
			if err != nil {
				return err
			}
			if err := readLoad(sys, src, plan, in); err != nil {
				return err
			}
			if err := scatterAndWrite(sys, tgt, st, ml, plan, in, out, opt); err != nil {
				return err
			}
			opt.emit(st.kind(), st.kernel(), ml+1, loads)
		}
		return nil
	}

	// Double buffering: the reader goroutine fetches load ml into
	// ins[ml%2] and hands it over on an unbuffered channel. The handoff of
	// load ml+1 cannot complete before the main goroutine has finished
	// scattering load ml, so the reader is never more than one load ahead
	// and never overwrites a buffer still being consumed.
	ins := [2]*pdm.Buffer{sys.AcquireBuffer(), sys.AcquireBuffer()}
	type fetched struct {
		plan loadPlan
		err  error
	}
	ch := make(chan fetched)
	stop := make(chan struct{})
	go func() {
		defer close(ch)
		for ml := 0; ml < loads; ml++ {
			if err := ctx.Err(); err != nil {
				select {
				case ch <- fetched{loadPlan{}, err}:
				case <-stop:
				}
				return
			}
			plan, err := st.prepare(ml)
			if err == nil {
				err = readLoad(sys, src, plan, ins[ml&1])
			}
			select {
			case ch <- fetched{plan, err}:
				if err != nil {
					return
				}
			case <-stop:
				return
			}
		}
	}()
	// abort unblocks and drains the reader before an early error return.
	abort := func() {
		close(stop)
		for range ch {
		}
	}
	for ml := 0; ml < loads; ml++ {
		if err := ctx.Err(); err != nil {
			abort()
			return err
		}
		f, ok := <-ch
		if !ok {
			return fmt.Errorf("engine: prefetcher exited before load %d", ml)
		}
		if f.err != nil {
			abort()
			return f.err
		}
		if err := scatterAndWrite(sys, tgt, st, ml, f.plan, ins[ml&1], out, opt); err != nil {
			abort()
			return err
		}
		opt.emit(st.kind(), st.kernel(), ml+1, loads)
	}
	return nil
}

// emit delivers one progress event, defaulting the pass coordinates to a
// single-pass run; multi-pass drivers override them by wrapping Progress.
func (o Options) emit(kind, kernel string, load, loads int) {
	if o.Progress == nil {
		return
	}
	o.Progress(PassEvent{Pass: 1, Passes: 1, Kind: kind, Kernel: kernel, Load: load, Loads: loads})
}

// forceRecordKernel disables run coalescing when true, so equivalence
// tests can pin the coalesced kernels byte-for-byte against the per-record
// oracle path. Never set outside tests.
var forceRecordKernel = false

// runLength picks a strategy's scatter run: 2^k records per coalesced
// copy, where k is the applier's run width clamped to maxBits (lg M for
// the memoryload-indexed scatters, lg B for the frame-indexed one — a run
// must never cross the unit the surrounding bookkeeping assumes
// invariant). A result of 1 selects the per-record kernel.
func runLength(runBits, maxBits int) int {
	if forceRecordKernel {
		return 1
	}
	if runBits > maxBits {
		runBits = maxBits
	}
	return 1 << uint(runBits)
}

// kernelName names the scatter kernel runLength selected.
func kernelName(run int) string {
	if run <= 1 {
		return "record"
	}
	return fmt.Sprintf("run%d", run)
}

// forceUngroupedIO routes the runner's reads and writes through one
// ParallelReadInto/ParallelWriteFrom call per operation instead of the
// grouped syscall-batching path, so equivalence tests can pin the grouped
// path byte-for-byte (records, Stats, trace) against the one-at-a-time
// semantics. Never set outside tests.
var forceUngroupedIO = false

func readLoad(sys *pdm.System, src pdm.Portion, plan loadPlan, in *pdm.Buffer) error {
	if forceUngroupedIO {
		for _, ios := range plan.reads {
			if err := sys.ParallelReadInto(src, ios, in); err != nil {
				return err
			}
		}
		return nil
	}
	// The whole load's reads are known up front, so the System can coalesce
	// their per-disk blocks into range transfers while still counting and
	// tracing each operation individually.
	return sys.ParallelReadGroup(src, plan.reads, in)
}

func scatterAndWrite(sys *pdm.System, tgt pdm.Portion, st passStrategy, ml int, plan loadPlan, in, out *pdm.Buffer, opt Options) error {
	shards, err := scatterShards(st, ml, plan, in, out, opt.workerCount())
	if err != nil {
		return err
	}
	writes, err := st.writes(ml, plan, shards)
	if err != nil {
		return err
	}
	if forceUngroupedIO {
		for _, ios := range writes {
			if err := sys.ParallelWriteFrom(tgt, ios, out); err != nil {
				return err
			}
		}
		return nil
	}
	return sys.ParallelWriteGroup(tgt, writes, out)
}

// scatterShards splits the load's scatter units across up to nw goroutines
// and collects the per-shard results.
func scatterShards(st passStrategy, ml int, plan loadPlan, in, out *pdm.Buffer, nw int) ([]any, error) {
	units := plan.units
	if nw > units {
		nw = units
	}
	if nw <= 1 {
		res, err := st.scatter(ml, plan, in, out, 0, units)
		if err != nil {
			return nil, err
		}
		return []any{res}, nil
	}
	shards := make([]any, nw)
	errs := make([]error, nw)
	per := (units + nw - 1) / nw
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo := w * per
		hi := lo + per
		if hi > units {
			hi = units
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			shards[w], errs[w] = st.scatter(ml, plan, in, out, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// stripedOps returns the M/BD striped parallel operations covering
// memoryload ml, stripe sw landing in frames sw*D..sw*D+D-1 — the read and
// write schedule shared by every striped stage.
func stripedOps(cfg pdm.Config, ml int) [][]pdm.BlockIO {
	spm := cfg.StripesPerMemoryload()
	ops := make([][]pdm.BlockIO, spm)
	ios := make([]pdm.BlockIO, spm*cfg.D)
	for sw := 0; sw < spm; sw++ {
		ops[sw] = ios[sw*cfg.D : (sw+1)*cfg.D]
		for disk := range ops[sw] {
			ops[sw][disk] = pdm.BlockIO{Disk: disk, Block: ml*spm + sw, Frame: sw*cfg.D + disk}
		}
	}
	return ops
}

// retargetStriped repoints a cached striped schedule at memoryload ml,
// building it on first use. Reusing the template across loads keeps the
// per-load planning allocation-free; it is safe because the System consumes
// an operation list synchronously (the backend moves the bytes and the
// trace copies the entries before the call returns), so no reference to the
// template outlives the call that used it. A strategy must keep separate
// templates for reads and writes: under pipelining, planning runs on the
// prefetch goroutine while the writes of the previous load run on the main
// goroutine.
func retargetStriped(ops *[][]pdm.BlockIO, cfg pdm.Config, ml int) [][]pdm.BlockIO {
	if *ops == nil {
		*ops = stripedOps(cfg, ml)
		return *ops
	}
	spm := cfg.StripesPerMemoryload()
	for sw, ios := range *ops {
		for d := range ios {
			ios[d].Block = ml*spm + sw
		}
	}
	return *ops
}
