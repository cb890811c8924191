package bmmc

import (
	"repro/internal/core"
)

// Engine is the stateless compute half of the API: it holds only
// planning and progress options and the LRU plan cache — never any records
// or storage. One Engine drives any number of Datasets from any number of
// goroutines; every Execute takes its target Dataset's run lock for the
// duration of the run, so executions on distinct Datasets proceed in
// parallel while two executions on one Dataset serialize in arrival order.
//
// Engine methods accept per-call Option overrides layered over the
// construction-time settings — a service installs a per-job WithProgress
// callback on its one shared Engine, or flips WithFusion per request —
// with no cross-call interference:
//
//	eng := bmmc.NewEngine(bmmc.WithPlanCache(128))
//	pl, err := eng.Plan(cfg, bmmc.BitReversal(cfg.LgN()))   // factorize once
//	rep, err := eng.Execute(ctx, pl, dsA)                   // run anywhere,
//	rep, err = eng.Execute(ctx, pl, dsB,                    // any number of times
//	    bmmc.WithProgress(report))
type Engine = core.Engine

// NewEngine builds an execution engine from the planning and progress
// options (WithFusion, WithPlanCache, WithProgress). Storage options
// (WithBackend, WithConcurrentIO) belong to CreateDataset and are ignored
// here. Engines are safe for concurrent use and are meant to be
// shared: one Engine per process is the norm, so every caller benefits
// from one plan cache.
func NewEngine(opts ...Option) *Engine { return core.NewEngine(opts...) }
