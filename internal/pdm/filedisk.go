package pdm

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// fileBackend keeps each simulated disk in one operating-system file, with
// records serialized at RecordBytes each. It exists so that experiments can
// be run against real file I/O: the parallel-I/O counts are identical to
// MemBackend runs (the model counts operations, not seconds), but
// wall-clock benchmarks then include genuine storage latency. Each disk
// remembers the range of its last successful Sync and, on Linux, begins
// writing back a later run of a page or more into that range as soon as
// the run is written, so the next Sync of the range waits for less. The
// early start is a hint: durability is promised only when Sync returns.
type fileBackend struct {
	diskArray
	dirs  []string
	disks []*fileDisk
}

// FileBackend returns the single-directory file storage backend: one file
// per disk inside dir, named disk0000.dat, disk0001.dat, ....
func FileBackend(dir string) Backend { return ShardedFileBackend(dir) }

// ShardedFileBackend returns a multi-volume file storage backend: disk i's
// file lives in dirs[i mod len(dirs)], so the D simulated disks spread
// round-robin across the given directories — mount each on a separate
// physical volume and the model's "D independent disks" become D
// independently seeking spindles. File names stay globally unique
// (disk%04d.dat with the global disk number), so distinct dirs may share a
// filesystem.
func ShardedFileBackend(dirs ...string) Backend { return &fileBackend{dirs: dirs} }

// Open implements Backend, opening or creating every disk's file.
func (b *fileBackend) Open(numDisks, numBlocks, blockSize int) error {
	if len(b.dirs) == 0 {
		return fmt.Errorf("pdm: sharded file backend needs at least one directory")
	}
	if err := b.open(numDisks, numBlocks, blockSize); err != nil {
		return err
	}
	b.disks = make([]*fileDisk, 0, numDisks)
	for i := 0; i < numDisks; i++ {
		path := filepath.Join(b.dirs[i%len(b.dirs)], fmt.Sprintf("disk%04d.dat", i))
		d, err := openFileDisk(path, numBlocks, blockSize)
		if err != nil {
			b.Close()
			return fmt.Errorf("pdm: disk %d: %w", i, err)
		}
		b.disks = append(b.disks, d)
	}
	return nil
}

// ReadBlocks implements Backend: each run moves as one memcpy from the
// mapping, or one ReadAt. A System reads a mapped disk through its block
// views instead, so only unmapped disks, or disks behind a wrapper that
// hides the views, are read here.
func (b *fileBackend) ReadBlocks(xfers []RangeXfer) error {
	return b.serve(xfers, func(x RangeXfer) error { return b.disks[x.Disk].read(x.Block, x.Data) })
}

// WriteBlocks implements Backend: each run shorter than a page moves as
// one memcpy into the mapping, and any other run as one WriteAt.
func (b *fileBackend) WriteBlocks(xfers []RangeXfer) error {
	return b.serve(xfers, func(x RangeXfer) error { return b.disks[x.Disk].write(x.Block, x.Data) })
}

// BlockView implements BlockViewer on mapped disks: every reader in the
// System, counted reads included, copies the mapping's records directly.
// The view aliases the live mapping — read it only while nothing writes
// the block, and never after Close (which unmaps). Unmapped disks report
// no view.
func (b *fileBackend) BlockView(disk, block int) ([]Record, bool) {
	if disk < 0 || disk >= len(b.disks) || block < 0 || block >= b.numBlocks {
		return nil, false
	}
	d := b.disks[disk]
	if d.mapped == nil {
		return nil, false
	}
	return d.mapped[block*b.blockSize : (block+1)*b.blockSize], true
}

// Sync implements Backend, one disk after another: on Linux a mapped disk
// flushes only the blocks' bytes with one msync, and pages outside the
// range stay dirty, and stay writable without a fault, until the kernel
// writes them back on its own. Elsewhere, and on an unmapped disk, it
// fsyncs the whole file (see fileDisk.sync). Each disk whose sync succeeds
// then remembers the range, under its disk lock, so that later writes into
// it start their writeback early (see fileDisk.write).
func (b *fileBackend) Sync(block, count int) error {
	if block < 0 || count < 0 || block+count > b.numBlocks {
		return fmt.Errorf("pdm: sync range [%d,%d) out of range [0,%d)", block, block+count, b.numBlocks)
	}
	var firstErr error
	for i, d := range b.disks {
		if err := d.sync(block, count); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		b.mu[i].Lock()
		d.syncFrom, d.syncTo = block, block+count
		b.mu[i].Unlock()
	}
	return firstErr
}

// Close implements Backend.
func (b *fileBackend) Close() error {
	var firstErr error
	for _, d := range b.disks {
		if err := d.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fileDisk is one disk's file. On 64-bit little-endian unix hosts the whole
// file is additionally served through a shared memory mapping: every read,
// and every write shorter than a page, is a plain memcpy against the
// mapping's record view, with no syscall — the kernel's page cache holds
// the same pages a pread/pwrite implementation would populate, and the
// file's bytes are identical — while a write of a page or more is one
// WriteAt (see write). Where the mapping is unavailable, every run moves as one
// ReadAt/WriteAt over the caller's record slab on little-endian hosts (no
// per-record encode/decode), and through a scratch conversion buffer on the
// portable fallback. All paths produce byte-identical files (the wire
// format is pinned by the slab-view tests). A WriteAt of a page or more
// into the range the disk last synced also starts that run's writeback, so
// the next Sync of the range finds it under way (see write).
type fileDisk struct {
	f         *os.File
	blockSize int
	buf       []byte   // scratch conversion buffer, portable path only
	raw       []byte   // shared mapping of the whole file, nil without mmap
	mapped    []Record // record view of raw
	// syncFrom and syncTo bound the blocks [syncFrom, syncTo) of the
	// disk's last successful sync; the disk lock guards them.
	syncFrom, syncTo int
}

// fileDiskMmap gates the mapped fast path; tests clear it to pin the
// pread/pwrite implementation against the mapped one.
var fileDiskMmap = true

// startWriteback queues the n bytes of f at off for writeback and does not
// wait for them: sync_file_range(SYNC_FILE_RANGE_WRITE) on Linux, nothing
// elsewhere. It is only a head start for a later Sync, which still waits
// for, and reports, every byte; tests swap it to count the calls.
var startWriteback = writeback

// openFileDisk opens (or creates) the file at path and sizes it to hold
// numBlocks blocks of blockSize records. A file that already has exactly
// the right size keeps its contents — this is what lets OpenDataset
// reattach to records a previous process left behind — while a new or
// wrong-sized file is resized (new bytes are zero). Callers that need a
// known starting state overwrite the records themselves, as the canonical
// loaders do.
func openFileDisk(path string, numBlocks, blockSize int) (*fileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pdm: create file disk: %w", err)
	}
	size := int64(numBlocks) * int64(blockSize) * RecordBytes
	if st, err := f.Stat(); err != nil {
		f.Close()
		return nil, fmt.Errorf("pdm: stat file disk: %w", err)
	} else if st.Size() != size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("pdm: size file disk: %w", err)
		}
	}
	d := &fileDisk{f: f, blockSize: blockSize}
	if fileDiskMmap && canMmapDisks && RecordSlabViews && size > 0 {
		if raw, err := mmapFile(f, size); err == nil {
			// mmap returns page-aligned memory, so the record view always
			// aliases; the check guards the invariant rather than a real
			// fallback (an aliasing view is required — a converted copy
			// would silently detach from the file).
			if recs := BytesToRecords(raw); len(raw) > 0 && &raw[0] == &RecordsToBytes(recs)[0] {
				d.raw, d.mapped = raw, recs
			} else {
				munmapFile(raw)
			}
		}
		// On mmap failure the pread/pwrite path serves every run.
	}
	return d, nil
}

// read copies the run of blocks starting at block into dst. On slab-view
// hosts the file bytes land directly in dst with a single ReadAt.
func (d *fileDisk) read(block int, dst []Record) error {
	if d.mapped != nil {
		copy(dst, d.mapped[block*d.blockSize:])
		return nil
	}
	buf := d.wire(dst)
	if _, err := d.f.ReadAt(buf, int64(block)*int64(d.blockSize)*RecordBytes); err != nil {
		return fmt.Errorf("pdm: read blocks [%d,%d): %w", block, block+len(dst)/d.blockSize, err)
	}
	if !RecordSlabViews {
		DecodeRecords(dst, buf)
	}
	return nil
}

// write stores src at the run of blocks starting at block. A mapped disk
// copies a run shorter than a page into the mapping, and hands a longer one
// to WriteAt like an unmapped disk: a store into a page the last msync
// cleaned takes a write-protect fault on that page, which pwrite does not,
// while one syscall per short run (an MLD pass's single blocks) would cost
// more than the faults. On slab-view hosts the record slab is handed to
// WriteAt as-is. A run of a page or more that lies inside the disk's last
// synced range is then queued for writeback: the caller syncs that range
// again once the pass commits (a two-pass job's second pass rewrites the
// portion the previous job synced), so its writeback overlaps the rest of
// the pass instead of following it. Runs outside the range, which no Sync may ever
// ask for, stay dirty in the page cache.
func (d *fileDisk) write(block int, src []Record) error {
	n := len(src) * RecordBytes
	if d.mapped != nil && n < os.Getpagesize() {
		copy(d.mapped[block*d.blockSize:block*d.blockSize+len(src)], src)
		return nil
	}
	buf := d.wire(src)
	if !RecordSlabViews {
		EncodeRecords(buf, src)
	}
	off := int64(block) * int64(d.blockSize) * RecordBytes
	end := block + len(src)/d.blockSize
	if _, err := d.f.WriteAt(buf, off); err != nil {
		return fmt.Errorf("pdm: write blocks [%d,%d): %w", block, end, err)
	}
	if n >= os.Getpagesize() && block >= d.syncFrom && end <= d.syncTo {
		startWriteback(d.f, off, int64(n))
	}
	return nil
}

// wire returns the bytes a run of recs moves through: the records' own
// bytes on slab-view hosts, else the disk's scratch buffer, grown to fit.
// The caller holds the disk lock, which guards the scratch buffer.
func (d *fileDisk) wire(recs []Record) []byte {
	if RecordSlabViews {
		return RecordsToBytes(recs)
	}
	if n := len(recs) * RecordBytes; cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	return d.buf[:len(recs)*RecordBytes]
}

// sync makes the run of count blocks starting at block durable. On a
// mapping that starts with one msync(MS_SYNC) over the run's bytes, its
// start rounded down to a page as msync requires. On Linux that is all:
// msync writes back and waits on just that range of the file, device flush
// included, as a ranged fdatasync would. Elsewhere (darwin) msync neither
// flushes the drive's cache nor commits the file's metadata, so the whole
// file is fsynced after it, which Go does there with F_FULLFSYNC. Without a
// mapping it fsyncs the whole file.
func (d *fileDisk) sync(block, count int) error {
	if d.mapped == nil {
		return d.f.Sync()
	}
	start := block * d.blockSize * RecordBytes
	end := start + count*d.blockSize*RecordBytes
	if err := msyncFile(d.raw[start&^(os.Getpagesize()-1) : end]); err != nil {
		return fmt.Errorf("pdm: sync blocks [%d,%d): %w", block, block+count, err)
	}
	if runtime.GOOS != "linux" {
		return d.f.Sync()
	}
	return nil
}

// close unmaps the file (when mapped) and closes it.
func (d *fileDisk) close() error {
	var mmapErr error
	if d.raw != nil {
		mmapErr = munmapFile(d.raw)
		d.raw, d.mapped = nil, nil
	}
	if err := d.f.Close(); err != nil {
		return err
	}
	return mmapErr
}
