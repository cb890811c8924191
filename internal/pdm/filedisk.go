package pdm

import (
	"fmt"
	"os"
	"path/filepath"
)

// fileBackend keeps each simulated disk in one operating-system file, with
// records serialized at RecordBytes each. It exists so that experiments can
// be run against real file I/O: the parallel-I/O counts are identical to
// MemBackend runs (the model counts operations, not seconds), but
// wall-clock benchmarks then include genuine storage latency.
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
// mapping, or one ReadAt.
func (b *fileBackend) ReadBlocks(xfers []RangeXfer) error {
	return b.serve(xfers, func(x RangeXfer) error { return b.disks[x.Disk].read(x.Block, x.Data) })
}

// WriteBlocks implements Backend: each run moves as one memcpy into the
// mapping, or one WriteAt.
func (b *fileBackend) WriteBlocks(xfers []RangeXfer) error {
	return b.serve(xfers, func(x RangeXfer) error { return b.disks[x.Disk].write(x.Block, x.Data) })
}

// BlockView implements BlockViewer on mapped disks: bulk readers
// (System.DumpTo, RecordAt) borrow the mapping's records directly. The view
// aliases the live mapping — read it only under a lock excluding writes to
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

// Sync implements Backend, fsyncing every disk's file. Stores through a
// mapping dirty the same page cache pages pwrite would, and fsync flushes
// them alike, so no separate msync is needed.
func (b *fileBackend) Sync() error {
	var firstErr error
	for _, d := range b.disks {
		if err := d.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
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
// file is additionally served through a shared memory mapping: every run
// is a plain memcpy against the mapping's record view, with no syscall at
// all on the hot path — the kernel's page cache holds the same pages a
// pread/pwrite implementation would populate, and the file's bytes are
// identical. Where the mapping is unavailable, every run moves as one
// ReadAt/WriteAt over the caller's record slab on little-endian hosts (no
// per-record encode/decode), and through a scratch conversion buffer on the
// portable fallback. All paths produce byte-identical files (the wire
// format is pinned by the slab-view tests).
type fileDisk struct {
	f         *os.File
	blockSize int
	buf       []byte   // scratch conversion buffer, portable path only
	raw       []byte   // shared mapping of the whole file, nil without mmap
	mapped    []Record // record view of raw
}

// fileDiskMmap gates the mapped fast path; tests clear it to pin the
// pread/pwrite implementation against the mapped one.
var fileDiskMmap = true

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

// write stores src at the run of blocks starting at block. On slab-view
// hosts the record slab is handed to WriteAt as-is.
func (d *fileDisk) write(block int, src []Record) error {
	if d.mapped != nil {
		copy(d.mapped[block*d.blockSize:block*d.blockSize+len(src)], src)
		return nil
	}
	buf := d.wire(src)
	if !RecordSlabViews {
		EncodeRecords(buf, src)
	}
	if _, err := d.f.WriteAt(buf, int64(block)*int64(d.blockSize)*RecordBytes); err != nil {
		return fmt.Errorf("pdm: write blocks [%d,%d): %w", block, block+len(src)/d.blockSize, err)
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
