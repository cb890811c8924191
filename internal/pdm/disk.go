package pdm

import (
	"errors"
	"fmt"
)

// errDiskClosed is returned by every transfer on a MemDisk after Close.
var errDiskClosed = errors.New("pdm: disk closed")

// Disk abstracts one of the D independent disks. Blocks are numbered from 0;
// each holds exactly B records. Implementations must be safe for sequential
// use by a single System (the model has one I/O channel per disk, so there
// is no intra-disk concurrency to manage).
type Disk interface {
	// ReadBlock copies block blockNum into dst (len(dst) == B).
	ReadBlock(blockNum int, dst []Record) error
	// WriteBlock overwrites block blockNum from src (len(src) == B).
	WriteBlock(blockNum int, src []Record) error
	// NumBlocks returns the disk's capacity in blocks.
	NumBlocks() int
	// Close releases any resources (files) held by the disk.
	Close() error
}

// BlockRangeIO is an optional Disk extension: disks whose storage is one
// contiguous address space can move a run of consecutive blocks in a single
// operation. dst/src spans blocks [block0, block0+len/B); the length must be
// a positive multiple of the block size. Implementations must move exactly
// the records the equivalent sequence of per-block ReadBlock/WriteBlock
// calls would — range transfers are a wall-clock optimization (one syscall
// instead of one per block on file-backed disks), never a semantic change.
// The model's cost accounting is unaffected because it lives entirely above
// the Disk layer: the System counts parallel I/Os, not storage operations.
type BlockRangeIO interface {
	// ReadBlockRange copies blocks [block0, block0+len(dst)/B) into dst.
	ReadBlockRange(block0 int, dst []Record) error
	// WriteBlockRange overwrites blocks [block0, block0+len(src)/B) from src.
	WriteBlockRange(block0 int, src []Record) error
}

// MemDisk is a RAM-backed Disk used for fast simulation. Close releases
// its records; every later transfer fails.
type MemDisk struct {
	blockSize int
	data      []Record // nil once closed
}

// NewMemDisk returns a zero-filled RAM disk with the given geometry.
func NewMemDisk(numBlocks, blockSize int) *MemDisk {
	return &MemDisk{
		blockSize: blockSize,
		data:      make([]Record, numBlocks*blockSize),
	}
}

// ReadBlock implements Disk.
func (d *MemDisk) ReadBlock(blockNum int, dst []Record) error {
	if err := d.check(blockNum, len(dst)); err != nil {
		return err
	}
	copy(dst, d.data[blockNum*d.blockSize:(blockNum+1)*d.blockSize])
	return nil
}

// WriteBlock implements Disk.
func (d *MemDisk) WriteBlock(blockNum int, src []Record) error {
	if err := d.check(blockNum, len(src)); err != nil {
		return err
	}
	copy(d.data[blockNum*d.blockSize:(blockNum+1)*d.blockSize], src)
	return nil
}

// BlockView returns the backing slice of block blockNum without copying,
// or false when blockNum is out of range. The view aliases the stored
// records: it is safe to read only while no concurrent WriteBlock targets
// the block — the dataset-level read lock guarantees that on every bulk
// dump path, which is where the copy-free view pays off.
func (d *MemDisk) BlockView(blockNum int) ([]Record, bool) {
	if blockNum < 0 || blockNum >= d.NumBlocks() {
		return nil, false
	}
	return d.data[blockNum*d.blockSize : (blockNum+1)*d.blockSize], true
}

// ReadBlockRange implements BlockRangeIO: one copy covers the whole run.
func (d *MemDisk) ReadBlockRange(block0 int, dst []Record) error {
	if err := d.checkRange(block0, len(dst)); err != nil {
		return err
	}
	copy(dst, d.data[block0*d.blockSize:])
	return nil
}

// WriteBlockRange implements BlockRangeIO.
func (d *MemDisk) WriteBlockRange(block0 int, src []Record) error {
	if err := d.checkRange(block0, len(src)); err != nil {
		return err
	}
	copy(d.data[block0*d.blockSize:], src)
	return nil
}

// NumBlocks implements Disk.
func (d *MemDisk) NumBlocks() int { return len(d.data) / d.blockSize }

// Close implements Disk by dropping the record array, so a closed disk
// holds no memory even while something still references it.
func (d *MemDisk) Close() error {
	d.data = nil
	return nil
}

func (d *MemDisk) check(blockNum, n int) error {
	if d.data == nil {
		return errDiskClosed
	}
	if blockNum < 0 || blockNum >= d.NumBlocks() {
		return fmt.Errorf("pdm: block %d out of range [0,%d)", blockNum, d.NumBlocks())
	}
	if n != d.blockSize {
		return fmt.Errorf("pdm: buffer holds %d records, block holds %d", n, d.blockSize)
	}
	return nil
}

func (d *MemDisk) checkRange(block0, n int) error {
	if d.data == nil {
		return errDiskClosed
	}
	if n <= 0 || n%d.blockSize != 0 {
		return fmt.Errorf("pdm: range of %d records is not a positive multiple of block size %d", n, d.blockSize)
	}
	blocks := n / d.blockSize
	if block0 < 0 || block0+blocks > d.NumBlocks() {
		return fmt.Errorf("pdm: block range [%d,%d) out of range [0,%d)", block0, block0+blocks, d.NumBlocks())
	}
	return nil
}
