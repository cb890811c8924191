package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Dataset is records at rest: N records living on a storage Backend under
// one machine Config. It is the data half of the v3 Dataset/Engine split —
// a Dataset holds no planning state and no execution options, only the
// stored records, the backend they live on, and the portion bookkeeping
// that tracks where the current data physically sits.
//
// A Dataset is safe for concurrent use. Reads of data-at-rest (Dump,
// Records, Verify) take a shared lock and may overlap each other freely;
// mutations (Load, LoadRecords, and every Engine execution targeting the
// Dataset) take the exclusive run lock, so exactly one permutation runs on
// a Dataset at a time while any number of Engines and goroutines share it
// over its lifetime.
type Dataset struct {
	sys *pdm.System
}

// CreateDataset opens storage for a new dataset and fills it with the
// canonical records MakeRecord(0..N-1). Storage defaults to RAM; select
// files, sharded directories, or custom storage with WithBackend, and
// one goroutine per storage transfer with WithConcurrentIO (the only
// options a Dataset reads — execution and planning options belong to the Engine).
// Replace the canonical records with your own data via Load.
func CreateDataset(cfg pdm.Config, opts ...Option) (*Dataset, error) {
	ds, err := OpenDataset(cfg, opts...)
	if err != nil {
		return nil, err
	}
	if err := engine.LoadSequential(ds.sys); err != nil {
		ds.sys.Close()
		return nil, err
	}
	return ds, nil
}

// OpenDataset opens storage for a dataset without writing any records:
// the dataset holds whatever bytes the backend already stores. Use it to
// attach to a file or sharded backend populated by an earlier process (the
// data must sit in the source portion, where Sync left it); CreateDataset
// is OpenDataset plus the canonical initial load.
func OpenDataset(cfg pdm.Config, opts ...Option) (*Dataset, error) {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	be := s.backend
	if be == nil {
		be = pdm.MemBackend()
	}
	sys, err := pdm.NewSystem(cfg, be)
	if err != nil {
		return nil, err
	}
	sys.SetConcurrent(s.concurrentIO)
	return &Dataset{sys: sys}, nil
}

// Config returns the machine geometry the dataset lives under.
func (ds *Dataset) Config() pdm.Config { return ds.sys.Config() }

// System exposes the underlying disk system for advanced use (custom I/O
// schedules, direct engine invocation). Callers bypassing the Dataset API
// are responsible for the run/read locking Dataset methods perform.
func (ds *Dataset) System() *pdm.System { return ds.sys }

// Stats returns the accumulated parallel-I/O statistics of every run that
// ever targeted this dataset.
func (ds *Dataset) Stats() pdm.Stats { return ds.sys.Stats() }

// ResetStats zeroes the I/O counters.
func (ds *Dataset) ResetStats() { ds.sys.ResetStats() }

// Sync flushes the storage backend's buffered writes to stable storage.
func (ds *Dataset) Sync() error { return ds.sys.Sync() }

// Close releases the underlying storage backend. The Dataset must not be
// used afterwards; in-flight runs or reads must have finished.
func (ds *Dataset) Close() error { return ds.sys.Close() }

// Load replaces the dataset's stored records with exactly N records read
// from r in the library's wire format (pdm.RecordBytes bytes per record,
// Key then Tag, little-endian — the same layout the file backends store).
// This is how callers permute their own data instead of the canonical
// MakeRecord(0..N-1) layout: encode each fixed-size payload into a Record,
// Load, Execute, then Dump.
//
// The reader is consumed exactly N*pdm.RecordBytes bytes; fewer is an
// error (io.ErrUnexpectedEOF). Loading is not counted as parallel I/O —
// it models the data already residing on the disks. Load takes the
// dataset's exclusive run lock, so it never interleaves with a running
// execution; ctx cancellation and short reads abort with the stored
// records unchanged. The bytes move through the zero-copy streaming data
// plane (pdm.System.LoadFrom): block-sized slabs from a pooled arena, no
// per-record decode on little-endian hosts.
func (ds *Dataset) Load(ctx context.Context, r io.Reader) error {
	ds.sys.AcquireRun()
	defer ds.sys.ReleaseRun()
	if _, err := ds.sys.LoadFrom(ctx, ds.sys.Source(), r); err != nil {
		return fmt.Errorf("core: Load: %w", err)
	}
	return nil
}

// ReadFrom implements io.ReaderFrom as Load with a background context,
// returning the bytes consumed. Unlike the usual ReadFrom contract it
// stops after exactly N*pdm.RecordBytes bytes rather than at EOF, and a
// short stream is an error; io.Copy(dataset, r) therefore moves one
// dataset's worth of records and no more.
func (ds *Dataset) ReadFrom(r io.Reader) (int64, error) {
	ds.sys.AcquireRun()
	defer ds.sys.ReleaseRun()
	//lint:allow ctxio -- io.ReaderFrom interface has no ctx; cancel by closing the reader
	n, err := ds.sys.LoadFrom(context.Background(), ds.sys.Source(), r)
	if err != nil {
		return n, fmt.Errorf("core: Load: %w", err)
	}
	return n, nil
}

// Dump writes the stored records to w in address order, in the same wire
// format Load reads (N*pdm.RecordBytes bytes total). It always reads the
// current source portion — the output of the most recent execution —
// regardless of how many passes have run. Not counted as parallel I/O.
// Dump holds the shared read lock, so any number of Dumps may stream
// concurrently while executions wait; ctx cancellation aborts between
// chunks (w may have received a prefix). Like Load it runs on the
// streaming data plane (pdm.System.DumpTo): whole stripes into a pooled
// arena — via copy-free block views when the backend offers them — and no
// per-record encode on little-endian hosts.
func (ds *Dataset) Dump(ctx context.Context, w io.Writer) error {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	if _, err := ds.sys.DumpTo(ctx, ds.sys.Source(), w); err != nil {
		return fmt.Errorf("core: Dump: %w", err)
	}
	return nil
}

// WriteTo implements io.WriterTo as Dump with a background context,
// returning the bytes written (N*pdm.RecordBytes on success), so
// io.Copy(w, dataset) streams the dataset without an intermediate buffer.
func (ds *Dataset) WriteTo(w io.Writer) (int64, error) {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	//lint:allow ctxio -- io.WriterTo interface has no ctx; cancel by failing the writer
	n, err := ds.sys.DumpTo(context.Background(), ds.sys.Source(), w)
	if err != nil {
		return n, fmt.Errorf("core: Dump: %w", err)
	}
	return n, nil
}

// Records returns the stored records in address order (diagnostic; not
// counted as I/O). It always reads the system's current source portion —
// the portion holding the output of the most recent execution. Concurrent
// Records/Dump calls are safe; a running execution is waited out.
func (ds *Dataset) Records() ([]pdm.Record, error) {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	return ds.sys.DumpRecords(ds.sys.Source())
}

// LoadRecords replaces the stored records (diagnostic; not counted as
// I/O). Like Records, it targets the current source portion — the records
// the next execution will read — under the exclusive run lock.
func (ds *Dataset) LoadRecords(recs []pdm.Record) error {
	ds.sys.AcquireRun()
	defer ds.sys.ReleaseRun()
	return ds.sys.LoadRecords(ds.sys.Source(), recs)
}

// Verify checks that the stored records are exactly the image of the
// canonical initial layout under the given cumulative permutation.
func (ds *Dataset) Verify(bp perm.BMMC) error {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	return engine.VerifyBMMC(ds.sys, ds.sys.Source(), bp)
}

// VerifyMapping checks the stored records against an arbitrary bijection.
func (ds *Dataset) VerifyMapping(targetOf func(uint64) uint64) error {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	return engine.VerifyMapping(ds.sys, ds.sys.Source(), targetOf)
}
