// Package engine executes permutations on a simulated parallel disk system.
// It has six entry points, all taking Options: the plan executor RunPlan
// (which runs whatever pass list factor.Dispatch or a caller built), the
// three one-pass executors RunMRCPass, RunMLDPass and RunMLDInversePass,
// and two baselines — GeneralPermute (striped external merge sort for
// general permutations) and NaivePermute (a record-gather scheme realizing
// the N/D term, also the tests' oracle).
//
// Every pass reads the stored records and writes the permuted records to
// the disk system's other portion, then commits them as the stored
// records, exactly as the paper chains one-pass permutations.
//
// # The pass runner
//
// All engines execute through a single pipelined pass runner. A pass is a
// sequence of loads (usually memoryloads), each processed in three stages:
// read the load's blocks of the stored records into an input buffer,
// scatter the records to their target positions in an output buffer, and
// write the assembled blocks to the other portion. Each engine contributes
// only a small strategy — its class check plus its block-placement rule —
// and the runner supplies the execution machinery. A pass runs the three
// stages on three goroutines: a reader goroutine prefetches load k+1 into
// one of two input buffers, the pass's main goroutine scatters load k, and
// a writer goroutine writes load k-1 from one of two output buffers and
// then reports it. This is safe because one-pass algorithms read one
// portion and write the disjoint other portion, so consecutive loads touch
// independent disk regions. DESIGN.md ("The record hot path") says why the
// scatter is not sharded further.
//
// The invariant the runner maintains — asserted by the equivalence tests,
// which also run every pass with all three stages on one goroutine as
// their deterministic reference — is that the pipeline changes only
// wall-clock time. The model's cost metric is untouched: parallel-I/O
// counts, per-disk totals, pass structure, and the trace's operation
// multiset are identical to a sequential run, because every block still
// moves through exactly one counted parallel I/O.
package engine

import (
	"context"
	"fmt"

	"repro/internal/pdm"
)

// PassEvent is one progress report from the pass runner: load Load of
// Loads in pass Pass of Passes has completed (Load 0 marks the start of a
// pass). Kind names the pass's algorithm ("MRC", "MLD", "MLD^-1", "sort",
// "naive"). Kernel names the scatter inner loop the runner picked for the
// pass: "record" (one step-table XOR and one record move per record),
// "runN" (run-coalescing — one XOR plus one copy per N-record contiguous
// run), or the algorithm's own loop for the baselines ("sort", "merge",
// "pull"). IOs counts the parallel I/Os of the completed load, reads and
// writes, so a pass's events sum to its cost; a pass-start event carries 0.
// Multi-pass drivers stamp Pass/Passes; a directly-invoked single pass
// reports Pass = Passes = 1.
type PassEvent struct {
	Pass   int    // 1-based pass number within the run
	Passes int    // total passes in the run
	Kind   string // pass algorithm name
	Kernel string // scatter kernel the pass executes with
	Load   int    // memoryloads completed so far in this pass
	Loads  int    // total loads in the pass
	IOs    int    // parallel I/Os counted for the completed load
}

// Options observe the pass runner without affecting what it computes. The
// zero value runs every pass pipelined and reports nothing.
type Options struct {
	// Progress, when non-nil, receives a PassEvent at the start of every
	// pass and after every completed memoryload. The start event runs on
	// the caller's goroutine. A completed-load event runs on the pass's
	// writer goroutine once that load's writes are counted and before any
	// later load's writes, so callbacks must be cheap. Events arrive one
	// per load, in load order, and never run concurrently with each other
	// for one run.
	Progress func(PassEvent)

	// sequential runs all three stages of each pass on the caller's
	// goroutine. Only this package's tests set it, as the deterministic
	// reference the pipeline is checked against.
	sequential bool
}

// loadPlan describes one load of a pass: the parallel reads that fetch it
// into an input buffer, and strategy-private state computed during
// planning. Plans are produced on the reader goroutine and handed to the
// scatter stage, so a strategy must keep per-load state here rather than
// on itself.
type loadPlan struct {
	// reads holds the parallel read operations fetching the load, issued
	// as one group so the System can coalesce their per-disk blocks. The
	// runner consumes it during the read stage only, so a strategy may
	// reuse the backing arrays for later loads (see retargetStriped);
	// ctx, by contrast, stays live until the load's writes complete.
	reads [][]pdm.BlockIO
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
	// prepare plans load ml. It runs on the reader goroutine, so it must
	// not touch state shared with the scatter of earlier loads except
	// through the returned plan.
	prepare(ml int) (loadPlan, error)
	// scatter moves load ml's records from in to out on the pass's main
	// goroutine, checks the pass's invariants, and returns the parallel
	// writes that emit the load from out. The runner copies the writes
	// before the next scatter, so a strategy may reuse their backing
	// arrays.
	scatter(ml int, plan loadPlan, in, out *pdm.Buffer) ([][]pdm.BlockIO, error)
}

// runPass executes a full pass of st over sys: every load is read from the
// stored records, scattered, and written to the other portion, and once
// the last load's writes are counted runPass commits them.
//
// Cancellation and errors: ctx is checked between memoryloads (a pass
// never aborts a counted parallel I/O halfway). The first error from any
// stage stops the other two, and both the prefetch reader and the writer
// are drained before returning, so no goroutine or buffer outlives the
// call. A failed pass commits nothing, so the stored records are untouched
// and the system remains usable.
func runPass(ctx context.Context, sys *pdm.System, st passStrategy, opt Options) error {
	loads := st.loads()
	out := sys.AcquireBuffer()
	opt.emit(st.kind(), st.kernel(), 0, loads, 0)

	if opt.sequential {
		in := sys.AcquireBuffer()
		for ml := 0; ml < loads; ml++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			plan, err := st.prepare(ml)
			if err != nil {
				return err
			}
			if err := sys.ParallelReadGroup(plan.reads, in); err != nil {
				return err
			}
			writes, err := st.scatter(ml, plan, in, out)
			if err != nil {
				return err
			}
			if err := sys.ParallelWriteGroup(writes, out); err != nil {
				return err
			}
			opt.emit(st.kind(), st.kernel(), ml+1, loads, len(plan.reads)+len(writes))
		}
		sys.Commit()
		return nil
	}

	// Three stages. The reader goroutine fetches load ml into ins[ml%2]
	// and hands it over on an unbuffered channel. The handoff of load ml+1
	// cannot complete before the main goroutine has finished scattering
	// load ml, so the reader is never more than one load ahead and never
	// overwrites a buffer still being consumed. The main goroutine only
	// scatters. The writer goroutine writes each load from its output
	// slot and then reports it, so load ml's writes overlap the scatter of
	// load ml+1.
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
				err = sys.ParallelReadGroup(plan.reads, ins[ml&1])
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

	// The two output slots circulate between the main goroutine and the
	// writer. The main goroutine takes a free slot and scatters into it
	// until a load returns writes (a naive gather round fills one slot
	// over several writeless loads), then hands the slot to the writer,
	// which frees it once those writes are counted. So before scattering
	// into a slot, the main goroutine waits for the write from two loads
	// back. free holds both slots, so the writer never blocks freeing one.
	free := make(chan *outSlot, 2)
	free <- &outSlot{buf: out}
	free <- &outSlot{buf: sys.AcquireBuffer()}
	type loadDone struct {
		ml    int
		reads int      // parallel reads the load counted
		slot  *outSlot // nil when the load has no writes
	}
	// done holds one load, so the main goroutine can hand over load ml+1
	// and take load ml+2 from the reader, restarting it, while load ml is
	// still being written.
	done := make(chan loadDone, 1)
	writerExit := make(chan struct{})
	var writeErr error // set by the writer before writerExit closes
	go func() {
		defer close(writerExit)
		for d := range done {
			select {
			case <-stop:
				return
			default:
			}
			ios := d.reads
			if d.slot != nil {
				if writeErr = sys.ParallelWriteGroup(d.slot.ops, d.slot.buf); writeErr != nil {
					return
				}
				ios += len(d.slot.ops)
				free <- d.slot
			}
			opt.emit(st.kind(), st.kernel(), d.ml+1, loads, ios)
		}
	}()
	// drain waits out the reader and the writer. abort first stops both,
	// for an early error return; the writer skips any load not yet begun.
	drain := func() {
		close(done)
		<-writerExit
		for range ch {
		}
	}
	abort := func(err error) error {
		close(stop)
		drain()
		return err
	}
	var slot *outSlot
	for ml := 0; ml < loads; ml++ {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		var f fetched
		var ok bool
		select {
		case f, ok = <-ch:
		case <-writerExit:
			return abort(writeErr)
		}
		if !ok {
			return abort(fmt.Errorf("engine: prefetcher exited before load %d", ml))
		}
		if f.err != nil {
			return abort(f.err)
		}
		if slot == nil {
			select {
			case slot = <-free:
			case <-writerExit:
				return abort(writeErr)
			}
		}
		writes, err := st.scatter(ml, f.plan, ins[ml&1], slot.buf)
		if err != nil {
			return abort(err)
		}
		d := loadDone{ml: ml, reads: len(f.plan.reads)}
		if len(writes) > 0 {
			slot.own(writes)
			d.slot, slot = slot, nil
		}
		select {
		case done <- d:
		case <-writerExit:
			return abort(writeErr)
		}
	}
	drain()
	if writeErr == nil {
		sys.Commit()
	}
	return writeErr
}

// outSlot is an output buffer of a pipelined pass together with the
// writes the writer issues from it. The strategy's next scatter rewrites
// its write templates and scratch while the writer may still be reading
// them, so the main goroutine copies a load's writes into storage the
// slot owns and reuses across loads.
type outSlot struct {
	buf *pdm.Buffer
	ios []pdm.BlockIO
	ops [][]pdm.BlockIO
}

// own copies writes into the slot's storage.
func (s *outSlot) own(writes [][]pdm.BlockIO) {
	s.ios, s.ops = s.ios[:0], s.ops[:0]
	for _, w := range writes {
		s.ios = append(s.ios, w...)
	}
	at := 0
	for _, w := range writes {
		s.ops = append(s.ops, s.ios[at:at+len(w)])
		at += len(w)
	}
}

// emit delivers one progress event, defaulting the pass coordinates to a
// single-pass run; multi-pass drivers override them by wrapping Progress.
func (o Options) emit(kind, kernel string, load, loads, ios int) {
	if o.Progress == nil {
		return
	}
	o.Progress(PassEvent{Pass: 1, Passes: 1, Kind: kind, Kernel: kernel, Load: load, Loads: loads, IOs: ios})
}

// forceRecordKernel disables run coalescing when true, so equivalence
// tests can pin the coalesced kernels byte-for-byte against the per-record
// oracle path. Never set outside tests.
var forceRecordKernel = false

// runLength picks a strategy's scatter run: 2^k records per coalesced
// copy, where k is the applier's run width clamped to maxBits (lg M for
// the memoryload-indexed scatters, lg B for the frame-indexed one — a run
// must never cross the range scatterLoad walks). A result of 1 selects the
// per-record kernel, one step-table XOR per record.
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
// per-load planning allocation-free. It is safe because no stage keeps a
// template past its own use: the reader's System call consumes a read
// schedule before the next prepare (the backend moves the bytes and the
// trace copies the entries before the call returns), and the runner copies
// a load's writes before the next scatter, so the writer goroutine never
// reads a template. A strategy must keep separate templates for reads and
// writes: planning runs on the prefetch goroutine while the next scatter
// runs on the main goroutine.
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
