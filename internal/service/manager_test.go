package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bmmc "repro"
	"repro/internal/pdm"
)

// testConfig is small enough that a mem-backed job completes in
// milliseconds but still spans multiple memoryloads and passes.
var testConfig = bmmc.Config{N: 4096, D: 4, B: 8, M: 256}

func newTestManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

func submitReq(t *testing.T, cfg bmmc.Config, p bmmc.Permutation) SubmitRequest {
	t.Helper()
	return SubmitRequest{Config: cfg, Perm: string(bmmc.MarshalPermutation(p))}
}

// waitTerminal polls until the job leaves the live states.
func waitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if s := j.State(); s.Terminal() {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in state %s", j.ID(), j.State())
	return ""
}

// encodeRecords renders records in the 16-byte wire format.
func encodeRecords(recs []bmmc.Record) []byte {
	buf := make([]byte, len(recs)*bmmc.RecordBytes)
	for i, r := range recs {
		r.Encode(buf[i*bmmc.RecordBytes:])
	}
	return buf
}

// gatedReader serves data but blocks the first Read until released,
// keeping a job's upload — and therefore the worker that claimed it — in
// flight for as long as a test needs.
type gatedReader struct {
	release chan struct{}
	data    io.Reader
	once    sync.Once
}

func (g *gatedReader) Read(p []byte) (int, error) {
	g.once.Do(func() { <-g.release })
	return g.data.Read(p)
}

// blockerConfig returns a single-worker ManagerConfig whose hook parks the
// first job that executes (deterministically the first submitted) inside
// its first progress callback until release is closed. Submitting a job
// and then holding it there pins the worker so later submissions stay
// queued for as long as a test needs.
func blockerConfig(t *testing.T, queueDepth int) (ManagerConfig, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	var first sync.Once
	cfg := ManagerConfig{Workers: 1, QueueDepth: queueDepth, Dir: t.TempDir()}
	cfg.hook = func(j *Job, ev bmmc.PassEvent) {
		first.Do(func() { <-release })
	}
	return cfg, release
}

func TestJobLifecycleDone(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Workers: 1, QueueDepth: 4})
	p := bmmc.BitReversal(testConfig.LgN())
	j, err := m.Submit(submitReq(t, testConfig, p))
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Plan(); got.Class != "BMMC" || got.PassCount < 1 || got.CostIOs != got.PassCount*testConfig.PassIOs() {
		t.Errorf("plan summary unexpected: %+v", got)
	}
	if s := waitTerminal(t, j); s != StateDone {
		t.Fatalf("job finished %s (%s), want done", s, j.Status().Error)
	}
	st := j.Status()
	if st.Report == nil || st.Report.ParallelIOs != j.Plan().CostIOs {
		t.Fatalf("report %+v does not match planned cost %d", st.Report, j.Plan().CostIOs)
	}
	if st.Started == nil || st.Finished == nil {
		t.Errorf("terminal job missing timestamps: %+v", st)
	}

	// The permuted output must be exactly what a direct Permute produces:
	// the canonical record of source x now sits at address p(x).
	var out bytes.Buffer
	if err := j.Download(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	data := out.Bytes()
	for x := uint64(0); x < uint64(testConfig.N); x++ {
		got := bmmc.DecodeRecord(data[p.Apply(x)*bmmc.RecordBytes:])
		if got.Key != x {
			t.Fatalf("address %d holds key %d, want %d", p.Apply(x), got.Key, x)
		}
	}

	mt := m.Metrics()
	if mt.JobsDone != 1 || mt.ParallelIOs != st.Report.ParallelIOs || mt.Passes != st.Report.Passes {
		t.Errorf("metrics do not aggregate the job's stats: %+v vs report %+v", mt, st.Report)
	}

	// The job's private storage is reachable only through the job and is
	// deleted when the job is released.
	if _, err := m.Cancel(j.ID()); err != nil { // releases a terminal job
		t.Fatal(err)
	}
	assertNoDatasets(t, m)
	if st := j.Status(); st.Dataset != "" {
		t.Errorf("standalone job names dataset %q", st.Dataset)
	}
	if _, ok := m.Dataset(j.dsEntry.id); ok {
		t.Error("standalone job's storage is addressable as a dataset")
	}
	if !j.dsEntry.Status().Released {
		t.Error("released job's private storage was not deleted")
	}
}

// assertNoDatasets checks that standalone jobs left no trace in the
// dataset table or the dataset gauges.
func assertNoDatasets(t *testing.T, m *Manager) {
	t.Helper()
	if ds := m.Datasets(); len(ds) != 0 {
		t.Errorf("standalone jobs registered %d datasets", len(ds))
	}
	if mt := m.Metrics(); mt.DatasetsCreated != 0 || mt.DatasetsActive != 0 || mt.DatasetJobsRun != 0 {
		t.Errorf("standalone jobs counted as datasets: created=%d active=%d jobs_run=%d",
			mt.DatasetsCreated, mt.DatasetsActive, mt.DatasetJobsRun)
	}
}

// TestUploadedDataRoundTrip pins the data plane plus the worker's upload
// gate: the upload starts while the job is queued behind a pinned worker,
// the worker then claims the job mid-upload and must wait for the data to
// finish streaming before planning.
func TestUploadedDataRoundTrip(t *testing.T) {
	cfg, release := blockerConfig(t, 4)
	m := newTestManager(t, cfg)
	p := bmmc.GrayCode(testConfig.LgN())

	if _, err := m.Submit(submitReq(t, testConfig, bmmc.BitReversal(testConfig.LgN()))); err != nil {
		t.Fatal(err) // the blocker pinning the worker
	}
	recs := make([]bmmc.Record, testConfig.N)
	for i := range recs {
		recs[i] = bmmc.Record{Key: uint64(i) * 2654435761, Tag: uint64(i)}
	}
	j, err := m.Submit(submitReq(t, testConfig, p))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedReader{release: make(chan struct{}), data: bytes.NewReader(encodeRecords(recs))}
	uploadDone := make(chan error, 1)
	go func() { uploadDone <- j.Upload(context.Background(), gate) }()

	// Wait until the upload is registered, then free the worker: it will
	// claim j and park on the upload gate until the data finishes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		uploading := !j.dsEntry.idle()
		if uploading {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("upload never started")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	time.Sleep(10 * time.Millisecond) // give the worker time to reach the gate
	close(gate.release)
	if err := <-uploadDone; err != nil {
		t.Fatal(err)
	}

	if s := waitTerminal(t, j); s != StateDone {
		t.Fatalf("job finished %s, want done", s)
	}
	if !j.Status().InputLoaded {
		t.Fatal("InputLoaded not set after upload")
	}
	var out bytes.Buffer
	if err := j.Download(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	data := out.Bytes()
	for x := range recs {
		got := bmmc.DecodeRecord(data[p.Apply(uint64(x))*bmmc.RecordBytes:])
		if got != recs[x] {
			t.Fatalf("record %d: got %+v, want %+v", x, got, recs[x])
		}
	}
}

// TestQueueOverflowAndCancelWhileQueued drives the admission-control
// satellite: with one worker pinned by an in-flight upload, the queue
// fills, the next submit backpressures with ErrQueueFull (HTTP 429), a
// queued job cancels without ever being planned, and the survivors
// complete once the worker unblocks.
func TestQueueOverflowAndCancelWhileQueued(t *testing.T) {
	cfg, release := blockerConfig(t, 2)
	m := newTestManager(t, cfg)
	p := bmmc.BitReversal(testConfig.LgN())

	// The blocker claims the only worker and parks in its first progress
	// callback, so everything submitted next stays queued.
	blocker, err := m.Submit(submitReq(t, testConfig, p))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for blocker.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started running")
		}
		time.Sleep(time.Millisecond)
	}

	// Fill the queue, then overflow it.
	b, err := m.Submit(submitReq(t, testConfig, p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(submitReq(t, testConfig, p)); err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(submitReq(t, testConfig, p))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit returned %v, want ErrQueueFull", err)
	}
	var he *httpError
	if !errors.As(err, &he) || he.Status() != 429 {
		t.Fatalf("ErrQueueFull must map to HTTP 429, got %v", err)
	}

	// Cancel B while queued: immediately terminal, never planned.
	if _, err := m.Cancel(b.ID()); err != nil {
		t.Fatal(err)
	}
	if s := b.State(); s != StateCanceled {
		t.Fatalf("canceled queued job is %s, want canceled", s)
	}
	b.mu.Lock()
	claimed := b.claimed
	b.mu.Unlock()
	if claimed {
		t.Fatal("canceled-while-queued job was claimed by a worker")
	}

	// Unpin the worker: the blocker and the surviving queued job complete;
	// B stays canceled and is never claimed.
	close(release)
	if s := waitTerminal(t, blocker); s != StateDone {
		t.Fatalf("blocker finished %s, want done", s)
	}
	deadline = time.Now().Add(10 * time.Second)
	for m.Metrics().JobsDone != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	mt := m.Metrics()
	if mt.JobsDone != 2 || mt.JobsCanceled != 1 {
		t.Fatalf("metrics after drain: %+v, want 2 done / 1 canceled", mt)
	}
	b.mu.Lock()
	claimed = b.claimed
	b.mu.Unlock()
	if claimed {
		t.Fatal("canceled job was planned after the queue drained")
	}
}

// TestAwaitInputLifecycle covers the await-input admission path: the job
// holds its slot without running, becomes runnable when the upload lands,
// and — when canceled before any upload — frees its slot without ever
// being claimed.
func TestAwaitInputLifecycle(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Workers: 1, QueueDepth: 1})
	p := bmmc.GrayCode(testConfig.LgN())
	req := submitReq(t, testConfig, p)
	req.AwaitInput = true

	// Job holds the only admission slot while awaiting input.
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(submitReq(t, testConfig, p)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit returned %v, want ErrQueueFull while a pending job holds the slot", err)
	}
	time.Sleep(20 * time.Millisecond)
	if s := j.State(); s != StateQueued {
		t.Fatalf("await-input job advanced to %s without input", s)
	}

	// Cancel before any upload: terminal, never claimed, slot freed.
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if s := j.State(); s != StateCanceled {
		t.Fatalf("canceled pending job is %s", s)
	}
	j.mu.Lock()
	claimed, released := j.claimed, j.released
	j.mu.Unlock()
	if claimed || !released {
		t.Fatalf("canceled pending job: claimed=%v released=%v, want false/true", claimed, released)
	}

	// The slot is free again; an uploaded await-input job runs to done.
	j2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]bmmc.Record, testConfig.N)
	for i := range recs {
		recs[i] = bmmc.MakeRecord(uint64(i))
	}
	if err := j2.Upload(context.Background(), bytes.NewReader(encodeRecords(recs))); err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j2); s != StateDone {
		t.Fatalf("uploaded await-input job finished %s, want done", s)
	}
	if _, err := m.Cancel(j2.ID()); err != nil { // releases a terminal job
		t.Fatal(err)
	}
	assertNoDatasets(t, m)
}

// TestAwaitInputSkipsCanonicalFill pins that an await-input job's storage
// is opened without the canonical fill its upload would overwrite: the
// backend sees no block written between Submit and the upload, and the
// job's output is exactly the upload, permuted.
func TestAwaitInputSkipsCanonicalFill(t *testing.T) {
	var written atomic.Int64
	m := newTestManager(t, ManagerConfig{Workers: 1, QueueDepth: 2,
		WrapBackend: func(_ string, be bmmc.Backend) bmmc.Backend {
			return pdm.InstrumentBackend(be, func(s pdm.OpSample) {
				if s.Op == "write" {
					written.Add(int64(s.Blocks))
				}
			})
		}})
	p := bmmc.BitReversal(testConfig.LgN())
	req := submitReq(t, testConfig, p)
	req.Backend = BackendFile
	req.AwaitInput = true
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if n := written.Load(); n != 0 {
		t.Fatalf("submit wrote %d records before any upload, want none", n*int64(testConfig.B))
	}

	recs := make([]bmmc.Record, testConfig.N)
	for i := range recs {
		recs[i] = bmmc.Record{Key: uint64(i)*0x9e3779b9 + 1, Tag: uint64(i)}
	}
	if err := j.Upload(context.Background(), bytes.NewReader(encodeRecords(recs))); err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StateDone {
		t.Fatalf("job finished %s (%s), want done", s, j.Status().Error)
	}
	var out bytes.Buffer
	if err := j.Download(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	data := out.Bytes()
	for x := range recs {
		if got := bmmc.DecodeRecord(data[p.Apply(uint64(x))*bmmc.RecordBytes:]); got != recs[x] {
			t.Fatalf("address %d holds %+v, want uploaded record %d %+v", p.Apply(uint64(x)), got, x, recs[x])
		}
	}
}

// TestAwaitInputExpiry pins the admission-slot deadline: an await-input
// job whose upload never arrives is canceled when InputWait elapses, and
// its slot frees up for other tenants.
func TestAwaitInputExpiry(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Workers: 1, QueueDepth: 1, InputWait: 50 * time.Millisecond})
	req := submitReq(t, testConfig, bmmc.GrayCode(testConfig.LgN()))
	req.AwaitInput = true
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StateCanceled {
		t.Fatalf("expired await-input job finished %s, want canceled", s)
	}
	if msg := j.Status().Error; !strings.Contains(msg, "no input received") {
		t.Fatalf("expiry error %q does not name the cause", msg)
	}
	// The slot is free: a normal job is admitted and completes.
	j2, err := m.Submit(submitReq(t, testConfig, bmmc.GrayCode(testConfig.LgN())))
	if err != nil {
		t.Fatalf("slot not freed after expiry: %v", err)
	}
	if s := waitTerminal(t, j2); s != StateDone {
		t.Fatalf("post-expiry job finished %s, want done", s)
	}
}

// TestCancelWhileRunning aborts a job between memoryloads via the progress
// hook (deterministic: the hook fires early in pass 1, with most of its
// memoryloads still to run) and checks the daemon stays healthy — the
// worker survives, new jobs complete, and no goroutines leak.
func TestCancelWhileRunning(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		var m *Manager
		var once sync.Once
		cfg := ManagerConfig{Workers: 1, QueueDepth: 4, Dir: t.TempDir()}
		cfg.hook = func(j *Job, ev bmmc.PassEvent) {
			if ev.Pass == 1 && ev.Load == 1 {
				once.Do(func() {
					if _, err := m.Cancel(j.ID()); err != nil {
						t.Errorf("cancel from hook: %v", err)
					}
				})
			}
		}
		var err error
		m, err = NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.Shutdown(ctx)
		}()

		j, err := m.Submit(SubmitRequest{
			Config:  testConfig,
			Perm:    string(bmmc.MarshalPermutation(bmmc.BitReversal(testConfig.LgN()))),
			Backend: BackendFile,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := waitTerminal(t, j); s != StateCanceled {
			t.Fatalf("hook-canceled job finished %s, want canceled", s)
		}
		if _, err := j.Status(), j.Download(context.Background(), io.Discard); err == nil {
			t.Fatal("canceled job served output")
		}

		// The daemon remains healthy: the same worker completes new work
		// (the hook's sync.Once has fired, so nothing cancels this job).
		j2, err := m.Submit(submitReq(t, testConfig, bmmc.GrayCode(testConfig.LgN())))
		if err != nil {
			t.Fatal(err)
		}
		if s := waitTerminal(t, j2); s != StateDone {
			t.Fatalf("post-cancel job finished %s, want done", s)
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Errorf("goroutine leak: %d before, %d after manager shutdown", base, now)
	}
}

// TestSharedPlanCache pins the daemon-wide plan sharing: the second submit
// of an identical (geometry, permutation, fusion) triple is served from
// the shared cache and both jobs still verify.
func TestSharedPlanCache(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Workers: 2, QueueDepth: 8})
	p := bmmc.BitReversal(testConfig.LgN())
	j1, err := m.Submit(submitReq(t, testConfig, p))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(submitReq(t, testConfig, p))
	if err != nil {
		t.Fatal(err)
	}
	if waitTerminal(t, j1) != StateDone || waitTerminal(t, j2) != StateDone {
		t.Fatalf("jobs finished %s/%s, want done/done", j1.State(), j2.State())
	}
	mt := m.Metrics()
	if mt.PlanCacheHits != 1 || mt.PlanCacheMisses != 1 {
		t.Fatalf("plan cache hits/misses = %d/%d, want 1/1", mt.PlanCacheHits, mt.PlanCacheMisses)
	}
	if mt.PlanCacheRate != 0.5 {
		t.Fatalf("plan cache hit rate = %v, want 0.5", mt.PlanCacheRate)
	}
	if !j2.Status().Report.PlanShared || j1.Status().Report.PlanShared {
		t.Fatalf("plan sharing misreported: first %v, second %v",
			j1.Status().Report.PlanShared, j2.Status().Report.PlanShared)
	}
}

// TestShutdownDrains checks the graceful drain: running jobs finish,
// queued jobs cancel, storage is gone, and new submissions are refused.
func TestShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p := bmmc.BitReversal(testConfig.LgN())
	j1, err := m.Submit(SubmitRequest{Config: testConfig, Perm: string(bmmc.MarshalPermutation(p)), Backend: BackendSharded})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(submitReq(t, testConfig, p))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Shutdown(ctx)

	if s := j1.State(); !s.Terminal() {
		t.Fatalf("job 1 not terminal after shutdown: %s", s)
	}
	// j2 either completed before the drain observed it queued, or was
	// canceled; it must be terminal and released either way.
	if s := j2.State(); !s.Terminal() {
		t.Fatalf("job 2 not terminal after shutdown: %s", s)
	}
	for _, j := range []*Job{j1, j2} {
		j.mu.Lock()
		released := j.released
		j.mu.Unlock()
		if !released {
			t.Errorf("job %s storage not released by shutdown", j.ID())
		}
	}
	if _, err := m.Submit(submitReq(t, testConfig, p)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit returned %v, want ErrShuttingDown", err)
	}
}

// TestEventStream checks subscribers observe the lifecycle in order and
// the stream closes after the terminal event.
func TestEventStream(t *testing.T) {
	cfg, release := blockerConfig(t, 2)
	m := newTestManager(t, cfg)
	p := bmmc.BitReversal(testConfig.LgN())

	// Pin the worker so the subscription attaches while the job is still
	// queued and sees every transition.
	if _, err := m.Submit(submitReq(t, testConfig, p)); err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(submitReq(t, testConfig, bmmc.GrayCode(testConfig.LgN())))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancelSub := j.Subscribe()
	defer cancelSub()

	// A failed upload (no data) leaves the job queued on canonical records.
	if err := j.Upload(context.Background(), bytes.NewReader(nil)); err == nil {
		t.Fatal("empty upload unexpectedly succeeded")
	}
	close(release)

	var states []State
	progress := 0
	for ev := range ch {
		switch ev.Type {
		case EventState:
			states = append(states, ev.State)
		case EventProgress:
			progress++
			if ev.Progress == nil {
				t.Fatal("progress event without payload")
			}
		}
	}
	want := []State{StatePlanning, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("state sequence %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state sequence %v, want %v", states, want)
		}
	}
	if progress == 0 {
		t.Fatal("no progress events observed")
	}
}

// TestReleasedMemJobsFreeStorage pins that releasing a mem-backed job
// returns its records to the heap even though the manager keeps the job's
// metadata (and through it the Dataset) queryable: 32 jobs at 2^18
// records run and release one after another, 8 mem datasets are created
// and deleted, and afterwards the live heap has grown by less than two
// jobs' worth of records (2N x 16 B each).
func TestReleasedMemJobsFreeStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 32 x 2^18-record jobs")
	}
	cfg := bmmc.Config{N: 1 << 18, D: 4, B: 64, M: 1 << 14}
	jobBytes := uint64(2 * cfg.N * bmmc.RecordBytes)
	m := newTestManager(t, ManagerConfig{Workers: 1, QueueDepth: 4})
	gray := bmmc.GrayCode(cfg.LgN())
	runAndRelease := func() {
		t.Helper()
		j, err := m.Submit(submitReq(t, cfg, gray))
		if err != nil {
			t.Fatal(err)
		}
		if s := waitTerminal(t, j); s != StateDone {
			t.Fatalf("job finished %s (%s), want done", s, j.Status().Error)
		}
		if _, err := m.Cancel(j.ID()); err != nil { // releases a terminal job
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	runAndRelease() // warm the plan cache, pools and buffers
	before := heap()
	for i := 0; i < 32; i++ {
		runAndRelease()
	}
	for i := 0; i < 8; i++ {
		d, err := m.CreateDataset(CreateDatasetRequest{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.DeleteDataset(d.id); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if after > before && after-before >= 2*jobBytes {
		t.Fatalf("heap grew %d MiB over 32 released jobs and 8 deleted datasets; one job's records are %d MiB",
			(after-before)>>20, jobBytes>>20)
	}
	if got := len(m.Jobs()); got != 33 {
		t.Fatalf("manager lists %d jobs, want all 33 still queryable", got)
	}
}
