package pdm

import (
	"errors"
	"fmt"
	"sync"
)

// portion is one of the two record regions, 0 or 1, that each disk holds
// (see the package doc). A new System stores its records in portion 0.
type portion int

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
// storage backend they live on, and which of its two portions holds the
// stored records. That choice is execution state shared by every pass
// over the dataset, so runs must be serialized: engines (and anything else
// writing the disks or committing) hold the run lock
// (AcquireRun/ReleaseRun) for the whole run, while readers of data-at-rest
// (dumps, verification) hold the shared read lock (AcquireRead/ReleaseRead)
// and may overlap each other freely.
type System struct {
	cfg        Config
	be         Backend
	stats      Stats
	source     portion  // holds the stored records
	generation uint64   // commits since NewSystem
	observer   Observer // optional per-operation trace hook

	concurrent bool         // dispatch a batch's transfers on one goroutine each
	viewer     BlockViewer  // be's block views, nil when it offers none
	observers  []OpObserver // every InstrumentBackend layer's observer, outermost first

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
		cfg:   cfg,
		be:    be,
		stats: newStats(cfg.D),
	}
	if err := be.Open(cfg.D, 2*cfg.BlocksPerDisk(), cfg.B); err != nil {
		return nil, err
	}
	// The System times an instrumented backend's batches itself, every
	// stacked layer of it, so that concurrent dispatch, which calls the
	// backend once per transfer, and reads served from block views, which
	// call it not at all, still reach each observer as one sample a batch.
	for {
		in, ok := s.be.(*instrumented)
		if !ok {
			break
		}
		s.be, s.observers = in.be, append(s.observers, in.obs)
	}
	s.viewer, _ = s.be.(BlockViewer)
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
// latency the way D physical spindles would. Reads served from block
// views make no batch, so they copy on the calling goroutine either way.
func (s *System) SetConcurrent(on bool) { s.concurrent = on }

// transfer hands one batch to the backend; every backend call the System
// makes goes through it. Sequential dispatch moves the whole batch in one
// call. Concurrent dispatch moves each transfer on its own goroutine —
// several runs on one disk included — and returns the first error in
// batch order. Either way each instrumentation layer's observer sees the
// batch as one sample.
func (s *System) transfer(kind IOKind, xfers []RangeXfer) error {
	if len(s.observers) > 0 {
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

// Sync makes the stored records durable: it asks the backend to flush
// the stored portion's blocks of every disk. The other portion holds
// nothing live once a pass commits, so its writes are left to the
// backend, and after a commit Sync no longer makes the previous
// generation durable. Sync reads which portion is stored, so it must not
// overlap a commit; Dataset.Sync holds the read lock.
func (s *System) Sync() error {
	return s.be.Sync(s.physBlock(s.source, 0), s.cfg.BlocksPerDisk())
}

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
// a permutation execution, a record load, anything that writes the disks
// or commits — may hold it at a time, and it excludes AcquireRead readers
// for the duration. The lock is not reentrant: code already inside a run
// must not re-acquire it.
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

// Commit makes what counted writes put in the target portion the stored
// records and counts one generation: later reads see those writes, and
// later writes go to the portion that held the previous records. Every
// pass commits once its last write is counted, as do ReplaceRecords
// (LoadFrom among them) and LoadRecords. Call it under the run lock.
func (s *System) Commit() {
	s.source = 1 - s.source
	s.generation++
}

// Generation returns the number of commits since the System was opened.
func (s *System) Generation() uint64 { return s.generation }

// portionOf returns the portion a transfer of kind touches: reads the
// source, writes the target.
func (s *System) portionOf(kind IOKind) portion {
	if kind == IORead {
		return s.source
	}
	return 1 - s.source
}

// validate checks a batch of block transfers against the model's rules:
// at most one block per disk per operation, and all indices in range.
func (s *System) validate(ios []BlockIO) error {
	if len(ios) == 0 {
		return errors.New("pdm: empty parallel I/O")
	}
	if len(ios) > s.cfg.D {
		return fmt.Errorf("pdm: %d blocks in one parallel I/O exceeds D = %d", len(ios), s.cfg.D)
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
func (s *System) physBlock(p portion, block int) int {
	return int(p)*s.cfg.BlocksPerDisk() + block
}

// ReadStripe reads stripe `stripe` of the stored records — one block from
// every disk — into D consecutive frames of buf starting at frame0. One
// parallel I/O.
func (s *System) ReadStripe(stripe, frame0 int, buf *Buffer) error {
	ios := make([]BlockIO, s.cfg.D)
	for disk := range ios {
		ios[disk] = BlockIO{Disk: disk, Block: stripe, Frame: frame0 + disk}
	}
	return s.ParallelReadGroup([][]BlockIO{ios}, buf)
}

// WriteStripe writes D consecutive frames of buf starting at frame0 to
// stripe `stripe` of the target portion, where reads see it after Commit.
// One parallel I/O.
func (s *System) WriteStripe(stripe, frame0 int, buf *Buffer) error {
	ios := make([]BlockIO, s.cfg.D)
	for disk := range ios {
		ios[disk] = BlockIO{Disk: disk, Block: stripe, Frame: frame0 + disk}
	}
	return s.ParallelWriteGroup([][]BlockIO{ios}, buf)
}

// The helpers below bypass the I/O accounting. They exist for test setup and
// post-run verification only — algorithms must never call them.

// LoadRecords replaces the stored records with the given N records laid
// out per Figure 1 (striped, record index varying fastest within a block).
// Not counted as I/O. Like ReplaceRecords it writes the target portion and
// then commits, so a storage fault leaves the stored records unchanged.
// The backend batches alias records, a chunk at a time.
func (s *System) LoadRecords(records []Record) error {
	if len(records) != s.cfg.N {
		return fmt.Errorf("pdm: LoadRecords got %d records, want N = %d", len(records), s.cfg.N)
	}
	if err := s.walk(IOWrite, s.portionOf(IOWrite), records, nil); err != nil {
		return err
	}
	s.Commit()
	return nil
}

// DumpRecords returns the stored records in address order: the most
// recent commit's, however many commits have run. Not counted as I/O.
func (s *System) DumpRecords() ([]Record, error) {
	out := make([]Record, s.cfg.N)
	if err := s.walk(IORead, s.source, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// RecordAt returns the stored record at address x. Not counted as I/O;
// intended for spot checks in tests. Backends offering copy-free block
// views serve it without a block copy.
func (s *System) RecordAt(x uint64) (Record, error) {
	disk := s.cfg.DiskOf(x)
	block := s.physBlock(s.source, s.cfg.StripeOf(x))
	if s.viewer != nil {
		if recs, ok := s.viewer.BlockView(disk, block); ok {
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
