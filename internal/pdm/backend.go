package pdm

import (
	"errors"
	"fmt"
	"sync"
)

// RangeXfer names one transfer within a batch handed to a Backend: the run
// of consecutive physical blocks [Block, Block+len(Data)/B) of disk Disk
// moves to or from Data. A single block is a run of one. Block numbers are
// physical — the System resolves portion-relative positions before calling
// the backend.
type RangeXfer struct {
	Disk  int
	Block int
	Data  []Record // a whole number of blocks, len(Data) % blockSize == 0
}

// Backend abstracts the storage a System's D disks live on. Every write
// the System makes reaches the backend as a WriteBlocks batch of runs: a
// counted parallel I/O (at most one block per disk), the coalesced runs of
// a whole group of them, or a chunk of whole stripes of a bulk load. Reads
// come as ReadBlocks batches of the same shapes, except where the backend
// offers block views (BlockViewer): the System then copies those blocks
// from their views instead. One batch may carry several runs for the same
// disk; the backend may service a batch's runs in any order, and the
// System never puts two runs that overlap in conflicting ways into one
// batch.
//
// Implementations must tolerate concurrent calls from distinct goroutines:
// the pipelined pass runner overlaps a prefetch read with an in-flight
// write, and concurrent dispatch (System.SetConcurrent) moves each run of
// a batch on its own goroutine. Concurrent calls never touch the same
// block in conflicting ways during a correctly synchronized pass, but they
// may touch the same disk, so per-disk serialization is the backend's
// responsibility.
//
// The System layered on top performs all validation of the model's rules
// and all cost accounting; a Backend only moves bytes, and must move
// exactly the records the equivalent sequence of one-block transfers would.
type Backend interface {
	// Open sizes the backend before any transfer: numDisks disks, each
	// holding numBlocks blocks of blockSize records. Called exactly once.
	Open(numDisks, numBlocks, blockSize int) error
	// ReadBlocks fills each transfer's Data from its run of blocks.
	ReadBlocks(xfers []RangeXfer) error
	// WriteBlocks stores each transfer's Data at its run of blocks.
	WriteBlocks(xfers []RangeXfer) error
	// Sync makes the writes to physical blocks [block, block+count) of
	// every disk durable: once it returns nil, those blocks survive a
	// crash or power loss holding what was last written to them. A
	// backend may flush more than the range (a whole file, say); writes
	// outside it carry no durability promise. The file backends flush
	// just the range where they map their disks on Linux (64-bit hosts);
	// on darwin, and wherever they serve disks through pread/pwrite, they
	// fsync each disk's whole file.
	Sync(block, count int) error
	// Close releases the backend's resources. No transfers follow.
	Close() error
}

// BlockViewer is an optional Backend extension: backends whose storage is
// plain host memory can expose a physical block's records as a direct
// view. Every reader in the System then copies the block straight from its
// view — counted reads into their frames, bulk reads (System.DumpTo,
// ScanRecords) into their chunk, RecordAt the one record — and asks
// ReadBlocks only for blocks without a view: a counted read group in which
// any block lacks one is staged whole. So a backend that offers a view of
// a block is never asked to read it otherwise, and its views must hold
// exactly what ReadBlocks would read. The view aliases live storage —
// callers may only read it, and only while nothing writes the block: the
// dataset read lock on the bulk paths, and on counted reads the model's
// rule that a pass reads one portion while it writes the other. Backends
// without an in-memory representation simply don't implement it.
type BlockViewer interface {
	// BlockView returns a read-only view of physical block `block` of
	// disk `disk`, or false when no copy-free view is available.
	BlockView(disk, block int) ([]Record, bool)
}

// errDiskClosed is returned by every transfer on a closed mem backend.
var errDiskClosed = errors.New("pdm: disk closed")

// diskArray is the bookkeeping the built-in backends share: the geometry
// fixed at Open and one mutex per disk, which serializes the disk's
// transfers (the model has one I/O channel per disk).
type diskArray struct {
	numBlocks, blockSize int
	mu                   []sync.Mutex
}

func (a *diskArray) open(numDisks, numBlocks, blockSize int) error {
	if a.mu != nil {
		return fmt.Errorf("pdm: backend opened twice")
	}
	a.numBlocks, a.blockSize = numBlocks, blockSize
	a.mu = make([]sync.Mutex, numDisks)
	return nil
}

// serve checks every transfer of a batch and runs move on it in order,
// holding the transfer's disk lock; the first error ends the batch.
func (a *diskArray) serve(xfers []RangeXfer, move func(RangeXfer) error) error {
	if a.mu == nil {
		return fmt.Errorf("pdm: backend not opened")
	}
	for _, x := range xfers {
		if x.Disk < 0 || x.Disk >= len(a.mu) {
			return fmt.Errorf("pdm: disk %d out of range [0,%d)", x.Disk, len(a.mu))
		}
		n := len(x.Data)
		if n <= 0 || n%a.blockSize != 0 {
			return fmt.Errorf("pdm: range of %d records is not a positive multiple of block size %d", n, a.blockSize)
		}
		if end := x.Block + n/a.blockSize; x.Block < 0 || end > a.numBlocks {
			return fmt.Errorf("pdm: block range [%d,%d) out of range [0,%d)", x.Block, end, a.numBlocks)
		}
		a.mu[x.Disk].Lock()
		err := move(x)
		a.mu[x.Disk].Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// memBackend keeps each disk's blocks in one record array.
type memBackend struct {
	diskArray
	disks [][]Record // nil entries once closed
}

// MemBackend returns the RAM storage backend: one in-memory record array
// per disk. It is the default backend of a Dataset. Close drops the
// records, so a closed backend holds no memory even while something still
// references it; every later transfer fails.
func MemBackend() Backend { return &memBackend{} }

// Open implements Backend.
func (m *memBackend) Open(numDisks, numBlocks, blockSize int) error {
	if err := m.open(numDisks, numBlocks, blockSize); err != nil {
		return err
	}
	m.disks = make([][]Record, numDisks)
	for i := range m.disks {
		m.disks[i] = make([]Record, numBlocks*blockSize)
	}
	return nil
}

// ReadBlocks implements Backend: one copy per run.
func (m *memBackend) ReadBlocks(xfers []RangeXfer) error {
	return m.serve(xfers, func(x RangeXfer) error {
		d := m.disks[x.Disk]
		if d == nil {
			return errDiskClosed
		}
		copy(x.Data, d[x.Block*m.blockSize:])
		return nil
	})
}

// WriteBlocks implements Backend: one copy per run.
func (m *memBackend) WriteBlocks(xfers []RangeXfer) error {
	return m.serve(xfers, func(x RangeXfer) error {
		d := m.disks[x.Disk]
		if d == nil {
			return errDiskClosed
		}
		copy(d[x.Block*m.blockSize:], x.Data)
		return nil
	})
}

// BlockView implements BlockViewer. The view aliases the stored records:
// it is safe to read only while no concurrent write targets the block,
// which every reader in the System guarantees (see BlockViewer).
func (m *memBackend) BlockView(disk, block int) ([]Record, bool) {
	if disk < 0 || disk >= len(m.disks) || m.disks[disk] == nil || block < 0 || block >= m.numBlocks {
		return nil, false
	}
	return m.disks[disk][block*m.blockSize : (block+1)*m.blockSize], true
}

// Sync implements Backend; RAM has nothing to flush.
func (m *memBackend) Sync(block, count int) error { return nil }

// Close implements Backend by dropping every disk's records.
func (m *memBackend) Close() error {
	for i := range m.disks {
		m.disks[i] = nil
	}
	return nil
}
