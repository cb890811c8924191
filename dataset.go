package bmmc

import (
	"repro/internal/core"
)

// Dataset is records at rest: N records living on a storage Backend under
// one machine Config, with no planning state and no execution options
// attached. It is the data half of the API — an Engine supplies the
// compute, and the two meet only at Engine.Execute/Engine.Permute.
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
type Dataset = core.Dataset

// CreateDataset opens storage for a new dataset and fills it with the
// canonical records MakeRecord(0..N-1). Storage defaults to RAM; select
// files, sharded directories, or custom storage with WithBackend, and
// one goroutine per storage transfer with WithConcurrentIO — the only
// options a Dataset reads (execution and planning options configure the Engine).
// Replace the canonical records with your own data via Dataset.Load.
func CreateDataset(cfg Config, opts ...Option) (*Dataset, error) {
	return core.CreateDataset(cfg, opts...)
}

// OpenDataset opens storage for a dataset without writing any records: the
// dataset holds whatever bytes the backend already stores. Use it to
// attach to a file or sharded backend populated by an earlier process (the
// data must sit in the source portion, where Sync left it); CreateDataset
// is OpenDataset plus the canonical initial load.
func OpenDataset(cfg Config, opts ...Option) (*Dataset, error) {
	return core.OpenDataset(cfg, opts...)
}
