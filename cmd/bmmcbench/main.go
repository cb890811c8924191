// Command bmmcbench regenerates the paper's evaluation tables on the
// simulated parallel disk system. With no flags it runs every experiment in
// DESIGN.md's index on the default geometry and prints the tables that
// EXPERIMENTS.md archives, each stamped with its wall-clock time.
//
// Usage:
//
//	bmmcbench [-experiment name] [-N n] [-D d] [-B b] [-M m] [-seed s]
//	          [-json] [-pipeline] [-concurrent] [-fuse] [-cache c]
//	bmmcbench -compare old.json new.json [-tolerance frac]
//
// Experiment names: table1, tightbounds, crossover, mld, detect, potential,
// transpose, scaling, lemma9, ablation, inverse, pipeline, fusion,
// plancache, backend, chain, or "all".
//
// -compare gates a perf trajectory: it reads two -json snapshots, matches
// experiments by ID and geometry, prints per-experiment wall-clock ratios,
// and exits non-zero if any experiment slowed down by more than -tolerance
// (default 0.10, i.e. 10%). Sub-noise-floor experiments never fail the
// gate. CI runs it against the checked-in BENCH_*.json baselines.
//
// -pipeline and -concurrent select the execution mode of the pass runner
// (the read/scatter/write pipeline, one goroutine per storage transfer).
// They change wall-clock time only; every parallel-I/O count in the tables
// is identical across modes.
// -fuse runs every factored-driver workload through the plan-fusion
// optimizer (pass counts may drop below the verbatim Section 5 factoring,
// never rise); -cache sets the plan-cache capacity used by the plancache
// experiment. -json emits the tables as a JSON array with per-experiment
// elapsed time, for archiving perf trajectories (BENCH_*.json) across
// revisions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/pdm"
)

func main() {
	var (
		name = flag.String("experiment", "all", "experiment to run (all, table1, tightbounds, crossover, mld, detect, potential, transpose, scaling, lemma9, ablation, inverse, pipeline, fusion, plancache, backend, chain)")
		n    = flag.Int("N", experiments.DefaultConfig.N, "total records (power of 2)")
		d    = flag.Int("D", experiments.DefaultConfig.D, "disks (power of 2)")
		b    = flag.Int("B", experiments.DefaultConfig.B, "records per block (power of 2)")
		m    = flag.Int("M", experiments.DefaultConfig.M, "records of memory (power of 2)")
		seed = flag.Int64("seed", 1, "random seed for workload generation")

		jsonOut    = flag.Bool("json", false, "emit tables as JSON with per-experiment wall-clock")
		pipeline   = flag.Bool("pipeline", true, "read the next memoryload and write the previous one while the current one is permuted")
		concurrent = flag.Bool("concurrent", false, "move each storage transfer on its own goroutine (SetConcurrent)")
		fuse       = flag.Bool("fuse", false, "run factored-driver workloads through the plan-fusion optimizer")
		cache      = flag.Int("cache", experiments.DefaultHarness().PlanCacheSize, "plan-cache capacity for the plancache experiment")

		compare   = flag.Bool("compare", false, "compare two -json snapshots (old new) instead of running experiments")
		tolerance = flag.Float64("tolerance", 0.10, "with -compare: max tolerated wall-clock regression as a fraction")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bmmcbench -compare [-tolerance frac] old.json new.json")
			os.Exit(2)
		}
		if err := compareSnapshots(flag.Arg(0), flag.Arg(1), *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := pdm.Config{N: *n, D: *d, B: *b, M: *m}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	h := experiments.Harness{
		Exec:          engine.Options{Pipeline: *pipeline},
		ConcurrentIO:  *concurrent,
		Fuse:          *fuse,
		PlanCacheSize: *cache,
	}
	if !*jsonOut {
		fmt.Printf("BMMC permutation experiments on %v (seed %d, pipeline %v, concurrent I/O %v, fuse %v)\n\n",
			cfg, *seed, *pipeline, *concurrent, *fuse)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var tables []*experiments.Table
	timed := func(gen func(context.Context, pdm.Config, int64) (*experiments.Table, error)) (*experiments.Table, error) {
		start := time.Now()
		tbl, err := gen(ctx, cfg, *seed)
		if tbl != nil {
			tbl.Elapsed = time.Since(start)
		}
		return tbl, err
	}
	if *name == "all" {
		for _, gn := range experiments.Names() {
			tbl, err := timed(h.ByName(gn))
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s: %v\n", gn, err)
				os.Exit(1)
			}
			tables = append(tables, tbl)
		}
	} else {
		gen := h.ByName(*name)
		if gen == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *name)
			os.Exit(2)
		}
		tbl, err := timed(gen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tables = append(tables, tbl)
	}
	failed := false
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			for _, cell := range row {
				if cell == "FAIL" {
					failed = true
				}
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		for _, tbl := range tables {
			tbl.Fprint(os.Stdout)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "one or more bound checks FAILED")
		os.Exit(1)
	}
}
