package bmmc

import (
	"context"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/pdm"
)

// Dataset is records at rest: N records living on a storage Backend under
// one machine Config, with no planning state and no execution options
// attached — only the stored records and the backend they live on.
// It is the data half of the API: an Engine supplies the compute, and the
// two meet only at Engine.Execute/Engine.Permute.
//
// A Dataset is safe for concurrent use: reads of data-at-rest (Dump,
// Records, Verify) take a shared lock and may overlap freely, while
// mutations (Load, LoadRecords, and every execution targeting the Dataset)
// take the exclusive run lock — exactly one permutation runs on a Dataset
// at a time, and any number of Engines and goroutines may share it.
//
//	ds, err := bmmc.CreateDataset(cfg, bmmc.WithBackend(bmmc.FileBackend(dir)))
//	defer ds.Close()
//	err = ds.Load(ctx, input)          // your records, 16 bytes each
//	eng := bmmc.NewEngine()
//	_, err = eng.Permute(ctx, ds, bmmc.BitReversal(cfg.LgN()))
//	_, err = eng.Permute(ctx, ds, bmmc.Transpose(5, cfg.LgN()-5))
//	err = ds.Dump(ctx, output)         // chained results, no copies between steps
type Dataset struct {
	sys *pdm.System
}

// CreateDataset opens storage for a new dataset and fills it with the
// canonical records MakeRecord(0..N-1). Storage defaults to RAM; select
// files, sharded directories, or custom storage with WithBackend, and one
// goroutine per storage transfer with WithConcurrentIO — the only options
// a Dataset reads (execution and planning options configure the Engine).
// Replace the canonical records with your own data via Dataset.Load.
func CreateDataset(cfg Config, opts ...Option) (*Dataset, error) {
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

// OpenDataset opens storage for a dataset without writing any records: the
// dataset holds whatever bytes the backend already stores. Use it to
// attach to a file or sharded backend populated by an earlier process;
// CreateDataset is OpenDataset plus the canonical initial load. Storage
// keeps two portions of N records; a reopened dataset always reads the
// first. Every pass and every Load commits by making the other portion
// the stored records, so after an odd number of commits they sit in the
// second and a reopen reads the previous generation: nothing on storage
// records yet which portion holds the last commit. Nor does a Sync
// promise that the previous generation is durable: it asks only for the
// portion holding the stored records.
func OpenDataset(cfg Config, opts ...Option) (*Dataset, error) {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	be := s.backend
	if be == nil {
		be = MemBackend()
	}
	sys, err := pdm.NewSystem(cfg, be)
	if err != nil {
		return nil, err
	}
	sys.SetConcurrent(s.concurrentIO)
	return &Dataset{sys: sys}, nil
}

// Config returns the machine geometry the dataset lives under.
func (ds *Dataset) Config() Config { return ds.sys.Config() }

// System exposes the underlying disk system for advanced use (custom I/O
// schedules, direct engine invocation). Callers bypassing the Dataset API
// are responsible for the run/read locking Dataset methods perform.
func (ds *Dataset) System() *pdm.System { return ds.sys }

// Stats returns the accumulated parallel-I/O statistics of every run that
// ever targeted this dataset.
func (ds *Dataset) Stats() Stats { return ds.sys.Stats() }

// ResetStats zeroes the I/O counters.
func (ds *Dataset) ResetStats() { ds.sys.ResetStats() }

// Sync makes the stored records durable: once it returns nil, they
// survive a crash or power loss on a backend that keeps its promise. It
// asks the backend for only the portion of storage that holds them (see
// OpenDataset), so the generation before the last commit carries no
// durability promise. The file backends flush just that portion where
// they map their disks on Linux (64-bit hosts); on darwin, and wherever
// they serve disks through pread/pwrite, they fsync each disk's whole
// file, both portions alike. Sync holds the shared read lock, so it waits
// for a running execution or Load to commit.
func (ds *Dataset) Sync() error {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	return ds.sys.Sync()
}

// Close releases the underlying storage backend. The Dataset must not be
// used afterwards; in-flight runs or reads must have finished.
func (ds *Dataset) Close() error { return ds.sys.Close() }

// Load replaces the dataset's stored records with exactly N records read
// from r in the library's wire format (RecordBytes bytes per record,
// Key then Tag, little-endian — the same layout the file backends store).
// This is how callers permute their own data instead of the canonical
// MakeRecord(0..N-1) layout: encode each fixed-size payload into a Record,
// Load, Execute, then Dump.
//
// The reader is consumed exactly N*RecordBytes bytes; fewer is an error
// (io.ErrUnexpectedEOF). Loading is not counted as parallel I/O — it
// models the data already residing on the disks. Load takes the dataset's
// exclusive run lock, so it never interleaves with a running execution.
// The bytes move through the zero-copy streaming data plane: one chunk at
// a time from a pooled arena into the portion the next pass would write,
// with no per-record decode on little-endian hosts, and the load commits
// exactly as a pass does. So it holds one chunk of memory however large N
// is, and ctx cancellation, a short read or a storage fault leaves the
// stored records unchanged.
func (ds *Dataset) Load(ctx context.Context, r io.Reader) error {
	ds.sys.AcquireRun()
	defer ds.sys.ReleaseRun()
	if _, err := ds.sys.LoadFrom(ctx, r); err != nil {
		return fmt.Errorf("bmmc: Load: %w", err)
	}
	return nil
}

// Dump writes the stored records to w in address order, in the same wire
// format Load reads (N*RecordBytes bytes total). It always reads the
// stored records — the most recent execution's output or Load's input —
// regardless of how many commits have run. Not counted as
// parallel I/O. Dump holds the shared read lock, so any number of Dumps
// may stream concurrently while executions wait; ctx cancellation aborts
// between chunks (w may have received a prefix). Like Load it runs on the
// streaming data plane: one chunk of whole stripes at a time into a
// pooled arena — via copy-free block views when the backend offers them —
// and no per-record encode on little-endian hosts.
func (ds *Dataset) Dump(ctx context.Context, w io.Writer) error {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	if _, err := ds.sys.DumpTo(ctx, w); err != nil {
		return fmt.Errorf("bmmc: Dump: %w", err)
	}
	return nil
}

// Records returns the stored records in address order (diagnostic; not
// counted as I/O): the most recent execution's output or Load's input.
// It returns all N records at once; Dump streams them in one chunk of
// memory. Concurrent Records/Dump calls are safe; a running execution is
// waited out.
func (ds *Dataset) Records() ([]Record, error) {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	return ds.sys.DumpRecords()
}

// LoadRecords replaces the stored records with recs (diagnostic; not
// counted as I/O) under the exclusive run lock. Like Load it writes the
// portion the next pass would write and then commits, so the next
// execution and Records read recs, and a storage fault leaves the stored
// records unchanged.
func (ds *Dataset) LoadRecords(recs []Record) error {
	ds.sys.AcquireRun()
	defer ds.sys.ReleaseRun()
	return ds.sys.LoadRecords(recs)
}

// Verify checks that the stored records are exactly the image of the
// canonical initial layout under the given cumulative permutation.
func (ds *Dataset) Verify(bp Permutation) error {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	return engine.VerifyBMMC(ds.sys, bp)
}

// VerifyMapping checks the stored records against an arbitrary bijection.
func (ds *Dataset) VerifyMapping(targetOf func(uint64) uint64) error {
	ds.sys.AcquireRead()
	defer ds.sys.ReleaseRead()
	return engine.VerifyMapping(ds.sys, targetOf)
}
