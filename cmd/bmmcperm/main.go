// Command bmmcperm performs one permutation — or a chain of them — on a
// parallel disk dataset and reports the measured parallel-I/O cost next to
// the paper's bounds.
//
// Usage:
//
//	bmmcperm [-N n] [-D d] [-B b] [-M m] [-dir path | -shards p1,p2] \
//	         -perm kind [-arg k] [-chain spec,spec,...] [-seed s] \
//	         [-in file|-] [-out file|-] [-concurrent] [-progress] \
//	         [-force-factored]
//
// Permutation kinds: bitrev, transpose (arg = lg R), gray, grayinv,
// vecrev, rotate (arg = k), hypercube (arg = mask), random (seed = -seed),
// rank (arg = rank gamma, drawn with -seed).
//
// -chain runs a comma-separated sequence of kind[:arg] steps back-to-back
// on the one dataset — the v3 chained-jobs flow, no copies between steps —
// e.g. "-chain bitrev,transpose:6,bitrev". It replaces -perm/-arg.
//
// Storage: RAM by default; -dir puts the D disks in one directory,
// -shards spreads them round-robin across a comma-separated directory
// list (one per physical volume). -in loads caller records (16-byte
// little-endian Key,Tag pairs) before permuting; -out dumps the permuted
// records in the same format. "-" selects stdin/stdout: with "-out -" the
// record stream owns stdout and every informational line moves to stderr
// (progress lines always go to stderr), so the output pipes cleanly.
//
// The tool builds the v3 objects explicitly — one Dataset on the selected
// Backend, one Engine — then plans each step (printing the inspectable
// plan) and executes the plans under a SIGINT-cancelable context. With
// canonical records it verifies every record's final location against the
// composed permutation; a failed verification prints a diff summary and
// exits nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	bmmc "repro"
	"repro/internal/cliutil"
)

// info is where human-readable reporting goes: stdout normally, stderr
// when the record stream owns stdout (-out -).
var info io.Writer = os.Stdout

func main() {
	var (
		n        = flag.Int("N", 1<<16, "total records (power of 2)")
		d        = flag.Int("D", 8, "disks (power of 2)")
		b        = flag.Int("B", 16, "records per block (power of 2)")
		m        = flag.Int("M", 1<<11, "records of memory (power of 2)")
		dir      = flag.String("dir", "", "directory for file-backed disks (empty: RAM)")
		shards   = flag.String("shards", "", "comma-separated directories for a sharded multi-volume backend")
		kind     = flag.String("perm", "bitrev", "permutation: bitrev, transpose, gray, grayinv, vecrev, rotate, hypercube, random, rank")
		chain    = flag.String("chain", "", "comma-separated kind[:arg] steps executed back-to-back on the one dataset (replaces -perm/-arg)")
		file     = flag.String("file", "", "read the permutation from a marshal-format file instead of -perm")
		arg      = flag.Int64("arg", 0, "permutation argument (lgR / k / mask / rank; also accepted as seed for -perm random)")
		seed     = flag.Int64("seed", 1, "seed for the random permutation generators")
		inFile   = flag.String("in", "", "load records from this file (or - for stdin) before permuting (16-byte little-endian records)")
		concur   = flag.Bool("concurrent", false, "move each storage transfer on its own goroutine (file/sharded backends)")
		outFile  = flag.String("out", "", "dump permuted records to this file (or - for stdout) afterwards")
		progress = flag.Bool("progress", false, "print per-pass progress to stderr while executing")
		factored = flag.Bool("force-factored", false, "skip one-pass dispatch; always run the factoring algorithm")
	)
	flag.Parse()

	if *outFile == "-" {
		// Stdout carries the raw record stream: keep it byte-clean.
		info = os.Stderr
	}

	cfg := bmmc.Config{N: *n, D: *d, B: *b, M: *m}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	// Resolve the permutation sequence: -chain, -file, or -perm/-arg.
	var perms []bmmc.Permutation
	var names []string
	switch {
	case *chain != "":
		if *factored {
			fatal(fmt.Errorf("-chain and -force-factored are mutually exclusive"))
		}
		for _, spec := range strings.Split(*chain, ",") {
			k, a := spec, int64(0)
			if i := strings.IndexByte(spec, ':'); i >= 0 {
				k = spec[:i]
				v, err := strconv.ParseInt(spec[i+1:], 0, 64)
				if err != nil {
					fatal(fmt.Errorf("chain step %q: %w", spec, err))
				}
				a = v
			}
			p, err := cliutil.BuildPerm(cfg, k, a, *seed)
			if err != nil {
				fatal(err)
			}
			perms = append(perms, p)
			names = append(names, spec)
		}
	case *file != "":
		p, err := cliutil.LoadPermFile(*file, cfg.LgN())
		if err != nil {
			fatal(err)
		}
		perms, names = []bmmc.Permutation{p}, []string{*file}
	default:
		p, err := cliutil.BuildPerm(cfg, *kind, *arg, *seed)
		if err != nil {
			fatal(err)
		}
		perms, names = []bmmc.Permutation{p}, []string{*kind}
	}

	// The v3 objects: a Dataset on the selected storage, and an Engine.
	dsOpts := []bmmc.Option{bmmc.WithConcurrentIO(*concur)}
	switch {
	case *shards != "":
		dsOpts = append(dsOpts, bmmc.WithBackend(bmmc.ShardedBackend(strings.Split(*shards, ",")...)))
	case *dir != "":
		dsOpts = append(dsOpts, bmmc.WithBackend(bmmc.FileBackend(*dir)))
	}
	ds, err := bmmc.CreateDataset(cfg, dsOpts...)
	if err != nil {
		fatal(err)
	}
	defer ds.Close()

	var engOpts []bmmc.Option
	if *progress {
		engOpts = append(engOpts, bmmc.WithProgress(func(ev bmmc.PassEvent) {
			if ev.Load == 0 || ev.Load == ev.Loads {
				fmt.Fprintf(os.Stderr, "  pass %d/%d [%s]: memoryload %d/%d\n",
					ev.Pass, ev.Passes, ev.Kind, ev.Load, ev.Loads)
			}
		}))
	}
	eng := bmmc.NewEngine(engOpts...)

	// Ctrl-C cancels between memoryloads, leaving the store consistent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	userData := *inFile != ""
	if userData {
		in := io.Reader(os.Stdin)
		if *inFile != "-" {
			f, err := os.Open(*inFile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			in = f
		}
		if err := ds.Load(ctx, in); err != nil {
			fatal(err)
		}
	}

	fmt.Fprintf(info, "machine:  %v\n", cfg)
	var reports []*bmmc.Report
	if *factored {
		rep, err := eng.PermuteFactored(ctx, ds, perms[0])
		if err != nil {
			fatal(err)
		}
		reports = append(reports, rep)
		fmt.Fprintf(info, "perm:     %s (rank gamma %d)\n", names[0], rep.RankGamma)
		fmt.Fprintf(info, "result:   %v\n", rep)
	} else {
		// Plan every step up front (chained steps print one plan each),
		// then execute the prepared plans back-to-back on the one dataset.
		plans := make([]*bmmc.Plan, len(perms))
		for i, p := range perms {
			pl, err := eng.Plan(cfg, p)
			if err != nil {
				fatal(err)
			}
			plans[i] = pl
			if len(perms) > 1 {
				fmt.Fprintf(info, "plan[%d]:  %s: %v\n", i+1, names[i], pl)
			} else {
				fmt.Fprintf(info, "plan:     %v\n", pl)
			}
		}
		for i, pl := range plans {
			rep, err := eng.Execute(ctx, pl, ds)
			if err != nil {
				fatal(err)
			}
			reports = append(reports, rep)
			if len(perms) > 1 {
				fmt.Fprintf(info, "step %d:   %s: %v\n", i+1, names[i], rep)
			} else {
				fmt.Fprintf(info, "perm:     %s (rank gamma %d)\n", names[i], rep.RankGamma)
				fmt.Fprintf(info, "result:   %v\n", rep)
			}
		}
	}
	if len(reports) > 1 {
		passes, ios := 0, 0
		for _, r := range reports {
			passes += r.Passes
			ios += r.ParallelIOs
		}
		fmt.Fprintf(info, "chain:    %d steps, %d passes, %d parallel I/Os total\n", len(reports), passes, ios)
	}
	fmt.Fprintf(info, "stats:    %v\n", ds.Stats())

	if *outFile != "" {
		if *outFile == "-" {
			if err := ds.Dump(ctx, os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Fprintf(info, "wrote:    <stdout> (%d records)\n", cfg.N)
		} else {
			f, err := os.Create(*outFile)
			if err != nil {
				fatal(err)
			}
			if err := ds.Dump(ctx, f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(info, "wrote:    %s (%d records)\n", *outFile, cfg.N)
		}
	}

	if userData {
		fmt.Fprintln(info, "loaded records: canonical verification skipped (use -out to inspect)")
		return
	}
	// The cumulative effect of the chain is the composition of its steps.
	composed := perms[0]
	for _, p := range perms[1:] {
		composed = p.Compose(composed)
	}
	if err := ds.Verify(composed); err != nil {
		fmt.Fprintf(os.Stderr, "verification FAILED: %v\n", err)
		printDiffSummary(ds, composed)
		os.Exit(1)
	}
	fmt.Fprintln(info, "verified: all records in place")
}

// diffExamples caps how many individual mismatches the diff summary lists.
const diffExamples = 5

// printDiffSummary compares every stored record against the expected image
// of the canonical layout under p and prints where and how they diverge.
func printDiffSummary(ds *bmmc.Dataset, p bmmc.Permutation) {
	recs, err := ds.Records()
	if err != nil {
		fmt.Fprintf(os.Stderr, "diff summary unavailable: %v\n", err)
		return
	}
	inv := p.Inverse()
	misplaced, corrupted, shown := 0, 0, 0
	for y, r := range recs {
		bad := false
		if !r.CheckIntegrity() {
			corrupted++
			bad = true
		} else if p.Apply(r.Key) != uint64(y) {
			misplaced++
			bad = true
		}
		if bad && shown < diffExamples {
			fmt.Fprintf(os.Stderr, "  addr %d: holds key %d, want key %d\n",
				y, r.Key, inv.Apply(uint64(y)))
			shown++
		}
	}
	if total := misplaced + corrupted; total > shown {
		fmt.Fprintf(os.Stderr, "  ... and %d more\n", total-shown)
	}
	fmt.Fprintf(os.Stderr, "diff summary: %d/%d records misplaced, %d corrupted\n",
		misplaced, len(recs), corrupted)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
