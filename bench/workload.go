package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	bmmc "repro"
)

// setupRuns is how many times each run brings its system up and warms it;
// setup_s is the median, so one slow bring-up does not move it.
const setupRuns = 3

// env is what one run hands its workload.
type env struct {
	seed   int64
	shrink int    // divide every record count by 2^shrink (toy sizes)
	dir    string // scratch directory on the disk under test
	tr     *tracer
	log    io.Writer

	// Test hooks. wrap puts a storage adversary under lib-slowdisk's
	// latency model; atLoop runs as the timed loop starts (it arms the
	// adversary, so setup stays clean); corrupt makes daemon-jobs expect
	// the wrong output from every timed job.
	wrap    func(bmmc.Backend) bmmc.Backend
	atLoop  func()
	corrupt bool
}

// workload is one scenario: a closed loop of identical jobs against one
// system, driven by up to clients goroutines that each send their next job
// only when the previous one has completed. The loop ends after jobs jobs
// or at its deadline, whichever comes first. A system that retains memory
// per job is given a count it finishes well inside the deadline, so its
// memory metrics compare equal job counts between runs of different speed.
type workload struct {
	name    string
	cfg     bmmc.Config // full-size geometry; -shrink scales it down
	clients int
	warmups int
	jobs    int
	// prepare generates the seeded inputs and any oracle state for the
	// run's geometry before any clock starts, and returns the function
	// that brings the system up.
	prepare func(ctx context.Context, e *env, cfg bmmc.Config) (opener, error)
}

// geometry returns the workload's geometry scaled down by 2^shrink records,
// never below 2^12, with memory kept between the BD floor and N.
func (w *workload) geometry(shrink int) bmmc.Config {
	cfg := w.cfg
	cfg.N = max(cfg.N>>shrink, 1<<12)
	cfg.M = max(cfg.M>>shrink, cfg.B*cfg.D)
	return cfg
}

// opener brings one instance of the system up; the n-th of setupRuns.
type opener func(ctx context.Context, n int) (instance, error)

// instance is a running system the timed loop drives.
type instance interface {
	run(ctx context.Context, j *job) (outcome, error)
	// planCacheRatio reports the system's plan cache hits over lookups.
	planCacheRatio(ctx context.Context) (float64, error)
	close(ctx context.Context) error
}

// job identifies one job of a run.
type job struct {
	index int    // 0-based; each setup's warm-up jobs take the first indices
	timed bool   // counts toward the job metrics (warm-ups do not)
	label string // workload/index, shared by every span of the job
	span  int64  // the job's root span (0 when untraced)
}

// outcome is what a completed job reports.
type outcome struct {
	records int // records permuted
	ios     int // counted parallel I/Os, equal to the plan's or job report's figure
	// after, when non-nil, runs once the job's clock has stopped: output
	// verification the job could not do inline, and trace ingestion.
	after func() error
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`          // end to end
	Layers    []metric `json:"layers,omitempty"` // per layer, traced runs only
}

func (r *result) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *result) ok() bool { return len(r.Errors) == 0 && r.Failed == 0 && r.Attempted > 0 }

// value returns the named metric's value, or false.
func (r *result) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// clientCount caps a workload's clients at the CPUs the process may use.
func clientCount(want int) int { return max(1, min(want, runtime.NumCPU())) }

// runWorkload prepares w, sets it up setupRuns times, and drives the last
// instance's closed loop for maxJobs jobs (w.jobs when 0) or seconds,
// whichever ends first.
func runWorkload(ctx context.Context, w *workload, e *env, seconds float64, maxJobs int) *result {
	res := &result{Workload: w.name, Traced: e.tr != nil}
	if maxJobs <= 0 {
		maxJobs = w.jobs
	}
	open, err := w.prepare(ctx, e, w.geometry(e.shrink))
	if err != nil {
		res.fail("prepare: %v", err)
		return res
	}

	var setups []float64
	var inst instance
	for n := 0; n < setupRuns; n++ {
		start := time.Now()
		in, err := open(ctx, n)
		if err != nil {
			res.fail("setup %d: %v", n+1, err)
			return res
		}
		took := time.Since(start)
		for i := 0; i < w.warmups; i++ {
			d, err := doJob(ctx, in, e.tr, &job{index: i, label: fmt.Sprintf("%s/warmup%d.%d", w.name, n+1, i+1)})
			if err != nil {
				in.close(ctx)
				res.fail("setup %d warm-up job %d: %v", n+1, i+1, err)
				return res
			}
			took += d.latency
		}
		setups = append(setups, took.Seconds())
		if n < setupRuns-1 {
			if err := in.close(ctx); err != nil {
				res.fail("setup %d teardown: %v", n+1, err)
				return res
			}
		} else {
			inst = in
		}
		// Each bring-up starts from a collected heap.
		runtime.GC()
	}

	// peak_rss_mb is the timed loop's own peak: how much resident memory
	// the three setups left behind depends on when the collector and the
	// scavenger last ran, so the loop starts with free memory returned to
	// the OS and the high-water mark reset.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		res.fail("resetting the peak RSS: %v", err)
	}
	if e.atLoop != nil {
		e.atLoop()
	}
	var (
		mu       sync.Mutex
		lat      []float64 // successful jobs' latencies, ms
		records  int
		ios      []int
		verifyNS int64
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	clients := clientCount(w.clients)
	io0 := e.tr.ioTotals()
	loopStart := time.Now()
	deadline := loopStart.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= maxJobs {
					return
				}
				j := &job{index: w.warmups + i, timed: true, label: fmt.Sprintf("%s/%d", w.name, i+1)}
				d, err := doJob(ctx, inst, e.tr, j)
				mu.Lock()
				res.Attempted++
				verifyNS += d.after.Nanoseconds()
				if err != nil {
					res.Failed++
					if res.Failed <= 3 {
						fmt.Fprintf(e.log, "%s: job %d failed: %v\n", w.name, i+1, err)
					}
				} else {
					lat = append(lat, float64(d.latency.Nanoseconds())/1e6)
					records += d.out.records
					ios = append(ios, d.out.ios)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	loopEnd := time.Now()
	peakRSS := peakRSSMB()
	ioDelta := e.tr.ioTotals().sub(io0)
	fmt.Fprintf(e.log, "%s: %d jobs in %.1f s, %d failed (%d clients)\n",
		w.name, res.Attempted, loopEnd.Sub(loopStart).Seconds(), res.Failed, clients)

	var ratio float64
	if e.tr != nil {
		if ratio, err = inst.planCacheRatio(ctx); err != nil {
			res.fail("plan cache metrics: %v", err)
		}
	}
	// Live heap is taken with the system still up, so what it retains
	// across jobs shows; two collections also empty the sync.Pools.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := inst.close(ctx); err != nil {
		res.fail("teardown: %v", err)
	}
	if len(lat) == 0 {
		res.fail("no job completed")
		return res
	}

	// Out-of-band verification pauses a client's clock, so it is taken out
	// of the wall time the throughput is measured over.
	busy := loopEnd.Sub(loopStart).Seconds() - float64(verifyNS)/1e9/float64(clients)
	sort.Float64s(lat)
	res.Metrics = []metric{
		{"setup_s", median(setups), "s"},
		{"job_p50_ms", quantile(lat, 0.5), "ms"},
		{"job_p90_ms", quantile(lat, 0.9), "ms"},
		{"mrec_per_s", float64(records) / 1e6 / busy, "Mrec/s"},
		{"parallel_ios_per_job", meanInt(ios), "count"},
		{"peak_rss_mb", peakRSS, "MB"},
		{"live_heap_mb", float64(ms.HeapAlloc) / (1 << 20), "MB"},
		{"fail_frac", float64(res.Failed) / float64(res.Attempted), "ratio"},
	}
	if e.tr != nil {
		res.Layers = layerMetrics(e.tr.snapshot(), ioDelta, len(lat), ratio, loopStart, loopEnd)
	}
	return res
}

// jobTimes is how long a job took and how long its after step took.
type jobTimes struct {
	latency, after time.Duration
	out            outcome
}

// doJob runs one job under its root span, then its untimed after step.
func doJob(ctx context.Context, in instance, tr *tracer, j *job) (jobTimes, error) {
	j.span = tr.newID()
	start := time.Now()
	out, err := in.run(ctx, j)
	end := time.Now()
	tr.record(span{ID: j.span, Name: "job", Job: j.label, Start: start, End: end})
	t := jobTimes{latency: end.Sub(start), out: out}
	if err == nil && out.after != nil {
		err = out.after()
		t.after = time.Since(end)
	}
	return t, err
}

// quantile returns the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func meanInt(values []int) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0
	for _, v := range values {
		sum += v
	}
	return float64(sum) / float64(len(values))
}
