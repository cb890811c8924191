package pdm

import (
	"errors"
	"fmt"
	"sync"
)

// Portion selects one of the two record regions on the disk system. As in
// Section 3 of the paper, one-pass algorithms read from a source portion and
// write to a disjoint target portion, swapping roles between chained passes
// so no source block is overwritten before it is read.
type Portion int

const (
	// PortionA is the region that initially holds the input records.
	PortionA Portion = 0
	// PortionB is the initially empty second region.
	PortionB Portion = 1
)

// BlockIO names one block transfer within a parallel I/O: the block at
// position Block on disk Disk (relative to a portion) moves to or from
// frame Frame of a Buffer.
type BlockIO struct {
	Disk  int // disk number, 0..D-1
	Block int // block position on the disk within the portion, 0..N/BD-1
	Frame int // buffer frame index, 0..M/B-1
}

// System is a simulated parallel disk system: D disks each holding two
// portions of N/BD blocks. All counted block transfers go through
// ParallelReadGroup/ParallelWriteGroup (or the striped wrappers), which
// move blocks to or from a caller's Buffer, enforce the model's
// one-block-per-disk rule and count every operation. The bytes themselves
// live in a pluggable storage Backend.
//
// A System is the disk-resident state of one dataset: the records, the
// storage backend they live on, and the source/target portion roles that
// track which physical portion holds the current data. The portion roles
// are execution state shared by every pass over the dataset, so runs must
// be serialized: engines (and anything else mutating the records) hold the
// run lock (AcquireRun/ReleaseRun) for the whole run, while readers of
// data-at-rest (dumps, verification) hold the shared read lock
// (AcquireRead/ReleaseRead) and may overlap each other freely.
type System struct {
	cfg      Config
	be       Backend
	stats    Stats
	source   Portion
	observer Observer // optional per-operation trace hook

	concurrent bool       // dispatch a batch's transfers on one goroutine each
	observeIO  OpObserver // InstrumentBackend's observer, fed one sample per batch

	mu    sync.Mutex   // guards stats and observer across overlapping operations
	runMu sync.RWMutex // dataset lock: writers are runs, readers are dumps
}

// NewSystem builds a System whose block storage is the given Backend. The
// backend is opened here (D disks, 2N/BD blocks each) and owned by the
// System from then on: Close closes it.
func NewSystem(cfg Config, be Backend) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if be == nil {
		return nil, fmt.Errorf("pdm: nil backend")
	}
	s := &System{
		cfg:    cfg,
		be:     be,
		stats:  newStats(cfg.D),
		source: PortionA,
	}
	if err := be.Open(cfg.D, 2*cfg.BlocksPerDisk(), cfg.B); err != nil {
		return nil, err
	}
	// The System times an instrumented backend's batches itself, so that
	// concurrent dispatch, which calls the backend once per transfer,
	// still reports one sample per batch.
	if in, ok := be.(*instrumented); ok {
		s.be, s.observeIO = in.be, in.obs
	}
	return s, nil
}

// NewMemSystem is shorthand for NewSystem(cfg, MemBackend()).
func NewMemSystem(cfg Config) (*System, error) { return NewSystem(cfg, MemBackend()) }

// SetConcurrent switches between sequential and concurrent dispatch of the
// transfers inside one backend batch. Call it before the System's first
// transfer. The model semantics and the I/O counts are identical either
// way — a batch's transfers share no memory and never write one block
// twice, so they commute — but concurrent dispatch moves every transfer on
// its own goroutine, letting file-backed disks overlap real storage
// latency the way D physical spindles would.
func (s *System) SetConcurrent(on bool) { s.concurrent = on }

// transfer hands one batch to the backend; every backend call the System
// makes goes through it. Sequential dispatch moves the whole batch in one
// call. Concurrent dispatch moves each transfer on its own goroutine —
// several runs on one disk included — and returns the first error in
// batch order. Either way an instrumented backend's observer sees the
// batch as one sample.
func (s *System) transfer(kind IOKind, xfers []RangeXfer) error {
	if s.observeIO != nil {
		return s.observedDispatch(kind, xfers)
	}
	return s.dispatch(kind, xfers)
}

func (s *System) dispatch(kind IOKind, xfers []RangeXfer) error {
	if !s.concurrent || len(xfers) == 1 {
		return s.move(kind, xfers)
	}
	errs := make([]error, len(xfers))
	var wg sync.WaitGroup
	for i := range xfers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.move(kind, xfers[i:i+1])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *System) move(kind IOKind, xfers []RangeXfer) error {
	if kind == IORead {
		return s.be.ReadBlocks(xfers)
	}
	return s.be.WriteBlocks(xfers)
}

// Close closes the storage backend. The System must not be used
// afterwards.
func (s *System) Close() error { return s.be.Close() }

// Sync flushes the storage backend's buffered writes to stable storage.
func (s *System) Sync() error { return s.be.Sync() }

// Config returns the system's model parameters.
func (s *System) Config() Config { return s.cfg }

// Stats returns a copy of the accumulated I/O statistics. Safe to call
// concurrently with in-flight parallel I/O (e.g. while a pipelined pass is
// running); the copy is a consistent snapshot between operations.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.PerDiskReads = append([]int(nil), s.stats.PerDiskReads...)
	out.PerDiskWrites = append([]int(nil), s.stats.PerDiskWrites...)
	return out
}

// ResetStats zeroes the I/O counters.
func (s *System) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Reset()
}

// AcquireRun takes the dataset's exclusive run lock. Exactly one run —
// a permutation execution, a record load, anything that mutates the stored
// records or swaps the portion roles — may hold it at a time, and it
// excludes AcquireRead readers for the duration. The lock is not
// reentrant: code already inside a run must not re-acquire it.
func (s *System) AcquireRun() { s.runMu.Lock() }

// ReleaseRun releases the exclusive run lock.
func (s *System) ReleaseRun() { s.runMu.Unlock() }

// AcquireRead takes the dataset's shared read lock: any number of readers
// of data-at-rest (DumpRecords, verification scans) may hold it
// concurrently, and it excludes runs. Backends already serialize per-disk
// access, so concurrent readers are safe all the way down.
func (s *System) AcquireRead() { s.runMu.RLock() }

// ReleaseRead releases the shared read lock.
func (s *System) ReleaseRead() { s.runMu.RUnlock() }

// Source returns the portion currently holding the input of the next pass.
func (s *System) Source() Portion { return s.source }

// Target returns the portion the next pass writes to.
func (s *System) Target() Portion { return 1 - s.source }

// SwapPortions exchanges the source and target roles: the commit of every
// pass, which has written the target portion, and of every ReplaceRecords
// (LoadFrom among them).
func (s *System) SwapPortions() { s.source = 1 - s.source }

// validate checks a batch of block transfers against the model's rules:
// at most one block per disk per operation, and all indices in range.
func (s *System) validate(p Portion, ios []BlockIO) error {
	if len(ios) == 0 {
		return errors.New("pdm: empty parallel I/O")
	}
	if len(ios) > s.cfg.D {
		return fmt.Errorf("pdm: %d blocks in one parallel I/O exceeds D = %d", len(ios), s.cfg.D)
	}
	if p != PortionA && p != PortionB {
		return fmt.Errorf("pdm: invalid portion %d", p)
	}
	// The duplicate checks scan earlier entries rather than building a set:
	// len(ios) <= D and D is small, so the quadratic scan beats a per-call
	// map — validate runs once per counted parallel I/O, squarely on the
	// hot path.
	for i, io := range ios {
		if io.Disk < 0 || io.Disk >= s.cfg.D {
			return fmt.Errorf("pdm: disk %d out of range [0,%d)", io.Disk, s.cfg.D)
		}
		if io.Block < 0 || io.Block >= s.cfg.BlocksPerDisk() {
			return fmt.Errorf("pdm: block %d out of range [0,%d)", io.Block, s.cfg.BlocksPerDisk())
		}
		if io.Frame < 0 || io.Frame >= s.cfg.Frames() {
			return fmt.Errorf("pdm: frame %d out of range [0,%d)", io.Frame, s.cfg.Frames())
		}
		for _, prev := range ios[:i] {
			if prev.Disk == io.Disk {
				return fmt.Errorf("pdm: two blocks on disk %d in one parallel I/O", io.Disk)
			}
			if prev.Frame == io.Frame {
				return fmt.Errorf("pdm: frame %d used twice in one parallel I/O", io.Frame)
			}
		}
	}
	return nil
}

// physBlock maps a portion-relative block position to the disk's physical
// block number.
func (s *System) physBlock(p Portion, block int) int {
	return int(p)*s.cfg.BlocksPerDisk() + block
}

// ReadStripe reads stripe `stripe` of portion p — one block from every disk
// — into D consecutive frames of buf starting at frame0. One parallel I/O.
func (s *System) ReadStripe(p Portion, stripe, frame0 int, buf *Buffer) error {
	ios := make([]BlockIO, s.cfg.D)
	for disk := range ios {
		ios[disk] = BlockIO{Disk: disk, Block: stripe, Frame: frame0 + disk}
	}
	return s.ParallelReadGroup(p, [][]BlockIO{ios}, buf)
}

// WriteStripe writes D consecutive frames of buf starting at frame0 to
// stripe `stripe` of portion p. One parallel I/O.
func (s *System) WriteStripe(p Portion, stripe, frame0 int, buf *Buffer) error {
	ios := make([]BlockIO, s.cfg.D)
	for disk := range ios {
		ios[disk] = BlockIO{Disk: disk, Block: stripe, Frame: frame0 + disk}
	}
	return s.ParallelWriteGroup(p, [][]BlockIO{ios}, buf)
}

// The helpers below bypass the I/O accounting. They exist for test setup and
// post-run verification only — algorithms must never call them.

// LoadRecords fills portion p with the given N records laid out per
// Figure 1 (striped, record index varying fastest within a block). Not
// counted as I/O. As with DumpRecords, p names a fixed physical portion:
// pass Source() to replace the records the next pass will read. The
// backend batches alias records, a chunk at a time.
func (s *System) LoadRecords(p Portion, records []Record) error {
	if len(records) != s.cfg.N {
		return fmt.Errorf("pdm: LoadRecords got %d records, want N = %d", len(records), s.cfg.N)
	}
	return s.walk(IOWrite, p, records, nil)
}

// DumpRecords returns the N records of portion p in address order. Not
// counted as I/O. Note that p is a fixed physical portion, not a role: the
// source/target roles swap after every pass and every ReplaceRecords
// (SwapPortions), so after an odd number of them the current records sit
// in PortionB. Callers that want "the current records" should pass
// Source(), which always names the portion holding the most recent commit.
func (s *System) DumpRecords(p Portion) ([]Record, error) {
	out := make([]Record, s.cfg.N)
	if err := s.walk(IORead, p, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// RecordAt returns the record stored at address x in portion p. Not counted
// as I/O; intended for spot checks in tests. Backends offering copy-free
// block views serve it without a block copy.
func (s *System) RecordAt(p Portion, x uint64) (Record, error) {
	disk := s.cfg.DiskOf(x)
	block := s.physBlock(p, s.cfg.StripeOf(x))
	if v, ok := s.be.(BlockViewer); ok {
		if recs, ok := v.BlockView(disk, block); ok {
			return recs[s.cfg.Offset(x)], nil
		}
	}
	buf := AcquireSlab(s.cfg.B)
	defer ReleaseSlab(buf)
	if err := s.transfer(IORead, []RangeXfer{{Disk: disk, Block: block, Data: buf}}); err != nil {
		return Record{}, err
	}
	return buf[s.cfg.Offset(x)], nil
}
