// Package bmmc reproduces "Asymptotically Tight Bounds for Performing BMMC
// Permutations on Parallel Disk Systems" (Cormen, Sundquist, Wisniewski;
// SPAA 1993 / Dartmouth PCS-TR94-223) as a complete Go library.
//
// A BMMC (bit-matrix-multiply/complement) permutation on N = 2^n records
// maps each n-bit source address x to the target address y = Ax XOR c over
// GF(2), for a nonsingular n x n characteristic matrix A and complement
// vector c. The class covers matrix transposition, bit-reversal, Gray
// codes, hypercube exchanges and vector reversal. On the Vitter-Shriver
// parallel disk model (D disks, B records per block, M records of memory),
// the paper proves a universal lower bound of
//
//	Omega((N/BD) (1 + rank(gamma)/lg(M/B)))
//
// parallel I/Os, where gamma is the lg(N/B) x lg(B) lower-left submatrix of
// A, and gives a matching algorithm using at most
//
//	(2N/BD) (ceil(rank(gamma)/lg(M/B)) + 2)
//
// parallel I/Os. This package implements the model (RAM- and file-backed),
// the algorithm, the one-pass MRC and MLD special cases, run-time BMMC
// detection, the baselines the paper compares against, and every closed-form
// bound in the paper.
//
// # Quick start
//
// The API has three first-class nouns: a Dataset (records at rest on a
// storage Backend), a stateless Engine (planning and progress options plus
// the plan cache), and the Plan joining them. Engine.Permute is
// Engine.Plan followed by Engine.Execute.
//
//	cfg := bmmc.Config{N: 1 << 16, D: 8, B: 16, M: 1 << 11}
//	ds, err := bmmc.CreateDataset(cfg)    // N records on 8 simulated disks
//	defer ds.Close()
//	eng := bmmc.NewEngine()
//	rep, err := eng.Permute(ctx, ds, bmmc.BitReversal(cfg.LgN()))
//	fmt.Println(rep)                      // passes, parallel I/Os, bounds
//	err = ds.Verify(bmmc.BitReversal(cfg.LgN()))
//
// One Engine drives many Datasets from many goroutines; each execution
// locks its target Dataset for the run, and reads of data-at-rest (Dump,
// Records, Verify) share a read lock, so concurrent readers never block
// each other. Multi-step out-of-core workloads chain permutations on one
// Dataset with zero copies between steps:
//
//	err = ds.Load(ctx, input)             // your records, 16 bytes each
//	pl, err := eng.Plan(cfg, bmmc.BitReversal(cfg.LgN()))
//	_, err = eng.Execute(ctx, pl, ds)     // step 1
//	_, err = eng.Permute(ctx, ds, bmmc.Transpose(9, 7)) // step 2, same data
//	err = ds.Dump(ctx, output)
//
// Lemma 1 composition is a value operation: q.Compose(p) is the single
// BMMC permutation "p, then q", and permuting by it costs what its own
// rank gamma dictates — never more than running p and q one at a time.
//
// # Plans, Backends, context, user data
//
// Engine.Plan returns a first-class *Plan — the dispatched class, the
// (possibly fused) one-pass sequence, and the Theorem 3 / Theorem 21 cost
// bounds — and Engine.Execute runs a prepared plan under a
// context.Context, so callers plan once and execute many times, on any
// Dataset with the same Config, through any Engine.
//
// Storage is pluggable behind the Backend interface at parallel-block
// granularity — MemBackend (default), FileBackend (one file per disk),
// ShardedBackend (disks spread round-robin over directories, one per
// physical volume), or any caller implementation (self-certify with
// repro/backendtest):
//
//	ds, err := bmmc.CreateDataset(cfg,
//	    bmmc.WithBackend(bmmc.ShardedBackend("/vol1", "/vol2")))
//
// Long runs are cancelable and observable: context cancellation lands
// between memoryloads (no counted parallel I/O is cut short, the
// pipeline's reader and writer goroutines are drained, and the records
// remain the state after the last completed pass), and WithProgress
// streams PassEvents — pass it per Execute call to track individual runs
// on a shared Engine. Caller data moves in and out with Dataset.Load and
// Dataset.Dump (16-byte little-endian records, see RecordBytes), replacing
// the canonical MakeRecord(0..N-1) layout; examples/userdata shows the
// full Load -> Plan -> Execute -> Dump loop.
//
// # Planning
//
// Factored permutations pass through a plan-optimization layer before
// execution. Pass fusion (on by default) re-segments the Section 5 pass
// list into the fewest adjacent GF(2) compositions that are still one-pass
// class members (MRC, MLD, or inverse-MLD), which lowers the measured
// parallel-I/O count for permutations the greedy factoring over-splits —
// the permuted records are identical either way. Every Engine keeps an
// LRU cache of the 64 plans it used last, so a repeated permutation skips
// re-factorization entirely, and each Report says whether its plan came
// from the cache:
//
//	eng := bmmc.NewEngine(bmmc.WithFusion(true)) // pass fusion (default on)
//	for _, p := range []bmmc.Permutation{rev, gray, rev} {
//	    rep, err := eng.Permute(ctx, ds, p)       // the second rev is a cache hit
//	    fmt.Println(rep.PlanCached, eng.CacheStats())
//	}
//
// # Execution
//
// All engines run through a three-stage pass runner: while one memoryload
// is permuted in memory, the next is prefetched on a reader goroutine into
// an independent buffer and the previous one is written out on a writer
// goroutine from its own buffer. The storage options configure the
// Dataset:
//
//	ds, err := bmmc.CreateDataset(cfg,
//	    bmmc.WithBackend(bmmc.FileBackend(dir)),
//	    bmmc.WithConcurrentIO(true))  // a goroutine per transfer (default off)
//
// Neither the pipeline nor concurrent dispatch changes what the paper's
// theorems measure: the permuted result, the parallel-I/O counts, and the
// per-disk totals are byte-identical to a one-goroutine run — only
// wall-clock time differs. Planning sits above that invariant: fusion may
// lower (never raise) the measured cost, and the plan cache changes
// nothing but planning time.
//
// # Service mode
//
// cmd/bmmcd serves the library as a long-lived daemon: permutation jobs
// are admitted through a bounded FIFO queue, executed on a bounded worker
// pool by one daemon-wide shared Engine (one plan cache for every tenant),
// and observable as an SSE event stream. Datasets are first-class daemon
// resources: upload records once, then chain any number of jobs against
// the dataset handle — each runs on the same storage, back to back, with
// no re-upload — and download the final state once. The Go client
// (package repro/client) wraps the whole HTTP surface:
//
//	c := client.New("http://127.0.0.1:9432")
//	dset, err := c.CreateDataset(ctx, client.CreateDatasetRequest{
//	    Config: cfg, Backend: client.BackendSharded})
//	err = c.UploadDataset(ctx, dset.ID, dataReader)  // once
//	j1, err := c.Submit(ctx, client.NewDatasetSubmitRequest(dset.ID, rev))
//	j2, err := c.Submit(ctx, client.NewDatasetSubmitRequest(dset.ID, gray))
//	final, err := c.Watch(ctx, j2.ID, nil)           // jobs run in order
//	err = c.DownloadDataset(ctx, dset.ID, outWriter) // composed result
//	_, err = c.DeleteDataset(ctx, dset.ID)
//
// Per-job storage (Submit with a Backend kind, Upload, Download,
// AwaitInput) remains fully supported. Per-job reports and the
// daemon's aggregate /v1/metrics count exactly the parallel I/Os a direct
// Engine.Execute of the same plan would measure. examples/service runs
// daemon and client end to end in one process.
//
// See the examples directory for out-of-core matrix transposition, FFT
// input reordering, Gray-code reordering, run-time detection, and service
// mode, and cmd/bmmcbench for the harness that regenerates every table in
// the paper's evaluation (archived in EXPERIMENTS.md).
package bmmc
