package pdm

import (
	"fmt"
	"sync"
)

// BlockXfer names one block transfer within a batch handed to a Backend:
// the physical block Block of disk Disk moves to or from Data (exactly one
// block, len(Data) == blockSize). Block numbers are physical — the System
// resolves portion-relative positions before calling the backend.
type BlockXfer struct {
	Disk  int
	Block int
	Data  []Record
}

// Backend abstracts the storage a System's D disks live on, at
// parallel-block granularity: each ReadBlocks/WriteBlocks call carries the
// per-disk transfers of one parallel I/O, so a backend sees exactly the
// operations the model counts and may service the transfers of one call in
// any order or in parallel (they touch distinct disks by construction).
//
// Implementations must tolerate concurrent ReadBlocks/WriteBlocks calls
// from distinct goroutines: the pipelined pass runner overlaps a prefetch
// read with an in-flight write. Concurrent calls never touch the same
// (disk, block) pair in conflicting ways during a correctly synchronized
// pass, but they may touch the same disk, so per-disk serialization is the
// backend's responsibility.
//
// The System layered on top performs all validation (one block per disk
// per operation, bounds) and all cost accounting; a Backend only moves
// bytes.
type Backend interface {
	// Open sizes the backend before any transfer: numDisks disks, each
	// holding numBlocks blocks of blockSize records. Called exactly once.
	Open(numDisks, numBlocks, blockSize int) error
	// ReadBlocks fills each transfer's Data from its (Disk, Block).
	ReadBlocks(xfers []BlockXfer) error
	// WriteBlocks stores each transfer's Data at its (Disk, Block).
	WriteBlocks(xfers []BlockXfer) error
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases the backend's resources. No transfers follow.
	Close() error
}

// RangeXfer names one contiguous run of physical blocks moving to or from a
// single disk: blocks [Block, Block+len(Data)/B) of disk Disk. The System's
// grouped parallel-I/O path coalesces a group's per-disk blocks into such
// runs so file-backed disks service each run with a single syscall.
type RangeXfer struct {
	Disk  int
	Block int
	Data  []Record // a whole number of blocks, len(Data) % blockSize == 0
}

// RangeBackend is an optional Backend extension: backends that can service
// runs of consecutive blocks move each transfer's run in one operation.
// Unlike ReadBlocks/WriteBlocks batches, one call may carry several
// transfers for the same disk (distinct runs); per-disk serialization
// remains the backend's responsibility. Implementations must move exactly
// the records the equivalent per-block sequence would — range transfers
// carry no accounting of their own, because the System counts and traces
// the model's parallel I/Os before regrouping them into runs.
type RangeBackend interface {
	// ReadBlockRanges fills each transfer's Data from its run of blocks.
	ReadBlockRanges(xfers []RangeXfer) error
	// WriteBlockRanges stores each transfer's Data at its run of blocks.
	WriteBlockRanges(xfers []RangeXfer) error
}

// concurrentSetter is implemented by backends that can toggle concurrent
// per-disk dispatch within one batch; System.SetConcurrent forwards to it.
type concurrentSetter interface {
	SetConcurrent(on bool)
}

// BlockViewer is an optional Backend extension: backends whose storage is
// plain host memory can expose a physical block's records as a direct
// view, letting bulk readers (System.DumpTo, System.RecordAt) skip the
// copy through a transfer buffer. The view aliases live storage — callers
// may only read it, and only while they hold a lock excluding writes to
// the block (the dataset read lock on every bulk path). Backends without
// an in-memory representation simply don't implement it.
type BlockViewer interface {
	// BlockView returns a read-only view of physical block `block` of
	// disk `disk`, or false when no copy-free view is available.
	BlockView(disk, block int) ([]Record, bool)
}

// blockViewer is the per-disk analog BlockViewer delegates to (MemDisk
// implements it).
type blockViewer interface {
	BlockView(block int) ([]Record, bool)
}

// syncer is the optional flush hook a Disk may implement (FileDisk does);
// diskBackend.Sync calls it on every disk that has one.
type syncer interface {
	Sync() error
}

// diskBackend adapts the per-disk Disk/DiskFactory abstraction to the
// batch-level Backend interface. It owns the per-disk serialization (the
// model has one I/O channel per disk) and the optional concurrent dispatch
// of a batch's transfers across goroutines.
type diskBackend struct {
	factory    DiskFactory
	disks      []Disk
	mu         []sync.Mutex
	blockSize  int
	concurrent bool
}

// NewDiskBackend returns a Backend whose disks are created one at a time by
// factory — the bridge that lets every per-disk Disk implementation
// (MemDisk, FileDisk, FaultyDisk wrappers, ...) serve as a storage backend.
func NewDiskBackend(factory DiskFactory) Backend {
	return &diskBackend{factory: factory}
}

// MemBackend returns the RAM storage backend: one in-memory block array per
// disk. It is the default backend of a Dataset.
func MemBackend() Backend { return NewDiskBackend(MemDiskFactory) }

// FileBackend returns the single-directory file storage backend: one file
// per disk inside dir, named disk0000.dat, disk0001.dat, ....
func FileBackend(dir string) Backend { return NewDiskBackend(FileDiskFactory(dir)) }

// ShardedFileBackend returns a multi-volume file storage backend: disk i's
// file lives in dirs[i mod len(dirs)], so the D simulated disks spread
// round-robin across the given directories — mount each on a separate
// physical volume and the model's "D independent disks" become D
// independently seeking spindles.
func ShardedFileBackend(dirs ...string) Backend {
	return NewDiskBackend(ShardedFileFactory(dirs...))
}

// ShardedFileFactory returns a DiskFactory placing disk i's file in
// dirs[i mod len(dirs)]. File names stay globally unique (disk%04d.dat with
// the global disk number), so distinct dirs may share a filesystem.
func ShardedFileFactory(dirs ...string) DiskFactory {
	return func(disk, numBlocks, blockSize int) (Disk, error) {
		if len(dirs) == 0 {
			return nil, fmt.Errorf("pdm: sharded file backend needs at least one directory")
		}
		return FileDiskFactory(dirs[disk%len(dirs)])(disk, numBlocks, blockSize)
	}
}

// Open implements Backend.
func (b *diskBackend) Open(numDisks, numBlocks, blockSize int) error {
	if b.disks != nil {
		return fmt.Errorf("pdm: backend opened twice")
	}
	b.disks = make([]Disk, numDisks)
	b.mu = make([]sync.Mutex, numDisks)
	b.blockSize = blockSize
	for i := 0; i < numDisks; i++ {
		d, err := b.factory(i, numBlocks, blockSize)
		if err != nil {
			b.Close()
			return fmt.Errorf("pdm: disk %d: %w", i, err)
		}
		if d.NumBlocks() < numBlocks {
			d.Close()
			b.Close()
			return fmt.Errorf("pdm: disk %d too small: %d blocks, need %d", i, d.NumBlocks(), numBlocks)
		}
		b.disks[i] = d
	}
	return nil
}

// SetConcurrent toggles per-disk goroutine dispatch within one batch.
func (b *diskBackend) SetConcurrent(on bool) { b.concurrent = on }

// BlockView implements BlockViewer by delegating to the disk when its
// implementation offers a copy-free view (MemDisk does; file-backed disks
// do not).
func (b *diskBackend) BlockView(disk, block int) ([]Record, bool) {
	if disk < 0 || disk >= len(b.disks) {
		return nil, false
	}
	v, ok := b.disks[disk].(blockViewer)
	if !ok {
		return nil, false
	}
	return v.BlockView(block)
}

// ReadBlocks implements Backend.
func (b *diskBackend) ReadBlocks(xfers []BlockXfer) error {
	return dispatch(b, xfers, func(x BlockXfer) error {
		b.mu[x.Disk].Lock()
		defer b.mu[x.Disk].Unlock()
		return b.disks[x.Disk].ReadBlock(x.Block, x.Data)
	})
}

// WriteBlocks implements Backend.
func (b *diskBackend) WriteBlocks(xfers []BlockXfer) error {
	return dispatch(b, xfers, func(x BlockXfer) error {
		b.mu[x.Disk].Lock()
		defer b.mu[x.Disk].Unlock()
		return b.disks[x.Disk].WriteBlock(x.Block, x.Data)
	})
}

// ReadBlockRanges implements RangeBackend. Disks that support BlockRangeIO
// (MemDisk, FileDisk) service a run in one operation; wrapped or custom
// disks fall back to per-block calls, preserving their semantics — a fault
// injector still sees every block.
func (b *diskBackend) ReadBlockRanges(xfers []RangeXfer) error {
	return dispatch(b, xfers, func(x RangeXfer) error {
		b.mu[x.Disk].Lock()
		defer b.mu[x.Disk].Unlock()
		d := b.disks[x.Disk]
		if r, ok := d.(BlockRangeIO); ok {
			return r.ReadBlockRange(x.Block, x.Data)
		}
		for i := 0; i*b.blockSize < len(x.Data); i++ {
			if err := d.ReadBlock(x.Block+i, x.Data[i*b.blockSize:(i+1)*b.blockSize]); err != nil {
				return err
			}
		}
		return nil
	})
}

// WriteBlockRanges implements RangeBackend (see ReadBlockRanges).
func (b *diskBackend) WriteBlockRanges(xfers []RangeXfer) error {
	return dispatch(b, xfers, func(x RangeXfer) error {
		b.mu[x.Disk].Lock()
		defer b.mu[x.Disk].Unlock()
		d := b.disks[x.Disk]
		if r, ok := d.(BlockRangeIO); ok {
			return r.WriteBlockRange(x.Block, x.Data)
		}
		for i := 0; i*b.blockSize < len(x.Data); i++ {
			if err := d.WriteBlock(x.Block+i, x.Data[i*b.blockSize:(i+1)*b.blockSize]); err != nil {
				return err
			}
		}
		return nil
	})
}

// dispatch runs one transfer per element, sequentially or on one goroutine
// per transfer, and returns the first error. Block batches touch distinct
// disks (System.validate enforces it) so their transfers commute; range
// batches may repeat a disk, where the per-disk mutex inside op serializes.
func dispatch[T any](b *diskBackend, xfers []T, op func(T) error) error {
	if b.disks == nil {
		return fmt.Errorf("pdm: backend not opened")
	}
	if !b.concurrent || len(xfers) == 1 {
		for _, x := range xfers {
			if err := op(x); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(xfers))
	var wg sync.WaitGroup
	for i, x := range xfers {
		wg.Add(1)
		go func(i int, x T) {
			defer wg.Done()
			errs[i] = op(x)
		}(i, x)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sync implements Backend, flushing every disk that supports it.
func (b *diskBackend) Sync() error {
	var firstErr error
	for _, d := range b.disks {
		s, ok := d.(syncer)
		if !ok {
			continue
		}
		if err := s.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close implements Backend.
func (b *diskBackend) Close() error {
	var firstErr error
	for _, d := range b.disks {
		if d == nil {
			continue
		}
		if err := d.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
