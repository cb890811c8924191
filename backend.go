package bmmc

import (
	"repro/internal/core"
	"repro/internal/pdm"
)

// Backend abstracts the storage a Dataset's D simulated disks live on.
// Every transfer reaches the backend as a ReadBlocks or WriteBlocks batch
// of RangeXfer runs — one counted parallel I/O, the coalesced runs of a
// group of them, or a chunk of whole stripes of a bulk load or dump — and
// one batch may carry several runs for the same disk. Implement it to put
// the record store on anything — object storage, a network block service,
// compressed files — without touching the permutation engines; the disk
// system above the backend performs all validation and cost accounting.
//
// Implementations must tolerate ReadBlocks/WriteBlocks calls from distinct
// goroutines (the pipelined pass runner overlaps a prefetch read with an
// in-flight write, and WithConcurrentIO moves each run on its own
// goroutine) and must serialize per-disk access themselves; see README
// "Implementing a Backend" for the full contract. The three built-in
// backends — MemBackend, FileBackend, ShardedBackend — cover RAM,
// single-directory, and multi-volume layouts.
type Backend = pdm.Backend

// RangeXfer is one transfer within a Backend batch: the len(Data)/blockSize
// consecutive physical blocks of disk Disk starting at Block move to or
// from the Data slice. A single block is a run of one.
type RangeXfer = pdm.RangeXfer

// MemBackend returns the RAM storage backend — the default for
// CreateDataset, and the fastest way to simulate.
func MemBackend() Backend { return pdm.MemBackend() }

// FileBackend returns the file storage backend: one file per simulated
// disk inside dir. Parallel-I/O counts are identical to MemBackend runs
// (the model counts operations, not seconds), but wall-clock measurements
// then include genuine storage latency; combine with WithConcurrentIO to
// overlap the per-disk transfers.
func FileBackend(dir string) Backend { return pdm.FileBackend(dir) }

// ShardedBackend returns the multi-volume file backend: disk i's file
// lives in dirs[i mod len(dirs)], spreading the D simulated disks
// round-robin across the given directories. Mount each directory on a
// separate physical volume and the model's "D independent disks" become D
// independently seeking spindles.
func ShardedBackend(dirs ...string) Backend { return pdm.ShardedFileBackend(dirs...) }

// ErrInjectedFault is the sentinel wrapped by every failure the chaos
// wrappers in repro/backendtest/chaos inject. Errors.Is-match it to tell
// a simulated adversarial-storage fault from a genuine backend error.
var ErrInjectedFault = pdm.ErrInjectedFault

// WithBackend selects a Dataset's storage backend. The Dataset opens and
// owns it: Dataset.Close closes it. The default is MemBackend().
func WithBackend(b Backend) Option { return core.WithBackend(b) }
