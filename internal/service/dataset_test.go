package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	bmmc "repro"
)

func createDS(t *testing.T, m *Manager, backend string) *dsEntry {
	t.Helper()
	d, err := m.CreateDataset(CreateDatasetRequest{Config: testConfig, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func dsSubmit(t *testing.T, m *Manager, d *dsEntry, p bmmc.Permutation) *Job {
	t.Helper()
	j, err := m.Submit(SubmitRequest{Dataset: d.id, Perm: string(bmmc.MarshalPermutation(p))})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func httpStatus(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error")
	}
	he, ok := err.(*httpError)
	if !ok {
		t.Fatalf("expected *httpError, got %T: %v", err, err)
	}
	return he.Status()
}

// TestDatasetChainLifecycle drives the full dataset-handle flow in
// process: create, upload once, chain two jobs, download once, delete —
// and pins the acceptance equivalence: the downloaded records equal the
// composed permutation applied to the upload by a direct Engine run.
func TestDatasetChainLifecycle(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Workers: 2, QueueDepth: 8})
	d := createDS(t, m, BackendFile)
	n := testConfig.LgN()
	p1, p2 := bmmc.BitReversal(n), bmmc.Transpose(4, n-4)

	// Upload user records once.
	recs := make([]bmmc.Record, testConfig.N)
	for i := range recs {
		recs[i] = bmmc.Record{Key: uint64(i) * 3_037_000_507 % (1 << 40), Tag: uint64(i)}
	}
	if err := d.Upload(context.Background(), bytes.NewReader(encodeRecords(recs))); err != nil {
		t.Fatal(err)
	}
	if st := d.Status(); !st.InputLoaded {
		t.Fatal("upload did not mark the dataset loaded")
	}

	// Chain two jobs on the handle.
	j1 := dsSubmit(t, m, d, p1)
	j2 := dsSubmit(t, m, d, p2)
	if s := waitTerminal(t, j1); s != StateDone {
		t.Fatalf("job 1 finished %s: %s", s, j1.Status().Error)
	}
	if s := waitTerminal(t, j2); s != StateDone {
		t.Fatalf("job 2 finished %s: %s", s, j2.Status().Error)
	}
	if st := j1.Status(); st.Dataset != d.id || st.Report == nil || st.Report.ParallelIOs == 0 {
		t.Fatalf("job 1 status lacks dataset linkage or per-job cost: %+v", st)
	}

	// Per-job stats are deltas: both jobs measured their own run.
	r1, r2 := j1.Status().Report, j2.Status().Report
	if r1.ParallelIOs != r1.ParallelReads+r1.ParallelWrites || r2.ParallelIOs <= 0 {
		t.Fatalf("per-job stat deltas inconsistent: %+v / %+v", r1, r2)
	}

	// Download once; compare against a direct chained Engine run.
	var got bytes.Buffer
	if err := d.Download(context.Background(), &got); err != nil {
		t.Fatal(err)
	}
	ds, err := bmmc.CreateDataset(testConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	eng := bmmc.NewEngine()
	for _, p := range []bmmc.Permutation{p1, p2} {
		if _, err := eng.Permute(context.Background(), ds, p); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := ds.Dump(context.Background(), &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("daemon dataset-chain output differs from the direct Engine chain")
	}

	// Metrics see the dataset jobs; delete reclaims and is idempotent.
	if mt := m.Metrics(); mt.DatasetsCreated != 1 || mt.DatasetJobsRun != 2 || mt.DatasetsActive != 1 {
		t.Fatalf("metrics: %+v", mt)
	}
	if _, err := m.DeleteDataset(d.id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteDataset(d.id); err != nil {
		t.Fatalf("second delete not idempotent: %v", err)
	}
	if mt := m.Metrics(); mt.DatasetsActive != 0 {
		t.Fatalf("deleted dataset still active in metrics: %+v", mt)
	}
	// The data plane is gone.
	if status := httpStatus(t, d.Upload(context.Background(), bytes.NewReader(nil))); status != http.StatusGone {
		t.Fatalf("upload to deleted dataset returned %d, want 410", status)
	}
}

// TestDatasetJobOrdering floods a multi-worker pool with a chain of
// permutations on one dataset; the ticket turnstile must execute them in
// submission order, so the final layout is the in-order composition.
func TestDatasetJobOrdering(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Workers: 4, QueueDepth: 16})
	d := createDS(t, m, BackendMem)
	n := testConfig.LgN()
	// Non-commuting steps: reordering any two changes the composition.
	steps := []bmmc.Permutation{
		bmmc.BitReversal(n),
		bmmc.GrayCode(n),
		bmmc.Transpose(3, n-3),
		bmmc.GrayCode(n),
		bmmc.RotateBits(n, 5),
		bmmc.BitReversal(n),
	}
	jobs := make([]*Job, len(steps))
	for i, p := range steps {
		jobs[i] = dsSubmit(t, m, d, p)
	}
	for i, j := range jobs {
		if s := waitTerminal(t, j); s != StateDone {
			t.Fatalf("chain job %d finished %s: %s", i, s, j.Status().Error)
		}
	}
	composed := bmmc.Identity(n)
	for _, p := range steps {
		composed = p.Compose(composed)
	}
	if err := d.ds.Verify(composed); err != nil {
		t.Fatalf("chain did not compose in submission order: %v", err)
	}
}

// TestDatasetDeleteWhileJobRunning pins the 409 contract: deleting a
// dataset is refused while a job is bound to it — held mid-run by the
// progress hook, deterministically — and succeeds once the chain drains.
func TestDatasetDeleteWhileJobRunning(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	var m *Manager
	cfg := ManagerConfig{Workers: 1, QueueDepth: 4, Dir: t.TempDir()}
	deleteErr := make(chan error, 1)
	cfg.hook = func(j *Job, ev bmmc.PassEvent) {
		if ev.Pass == 1 && ev.Load == 1 {
			once.Do(func() {
				_, err := m.DeleteDataset(j.dsEntry.id)
				deleteErr <- err
				close(gate)
			})
		}
	}
	m = newTestManager(t, cfg)
	d := createDS(t, m, BackendFile)
	j := dsSubmit(t, m, d, bmmc.BitReversal(testConfig.LgN()))
	<-gate
	if status := httpStatus(t, <-deleteErr); status != http.StatusConflict {
		t.Fatalf("delete-while-running returned %d, want 409", status)
	}
	if s := waitTerminal(t, j); s != StateDone {
		t.Fatalf("job finished %s after refused delete: %s", s, j.Status().Error)
	}
	if _, err := m.DeleteDataset(d.id); err != nil {
		t.Fatalf("delete after drain: %v", err)
	}
}

// TestDatasetDeleteWaitsForDownload pins the stream-drain contract: a
// DELETE issued while a download is streaming blocks until the stream
// finishes, then reclaims storage — and nothing leaks.
func TestDatasetDeleteWaitsForDownload(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		m, err := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.Shutdown(ctx)
		}()
		d := createDS(t, m, BackendFile)

		started := make(chan struct{})
		release := make(chan struct{})
		var out bytes.Buffer
		dlErr := make(chan error, 1)
		go func() {
			dlErr <- d.Download(context.Background(), blockingWriter{&out, started, release})
		}()
		<-started

		deleted := make(chan error, 1)
		go func() {
			_, err := m.DeleteDataset(d.id)
			deleted <- err
		}()
		// The delete must not complete while the stream is held open.
		select {
		case err := <-deleted:
			t.Fatalf("delete finished mid-download (err=%v)", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		if err := <-dlErr; err != nil {
			t.Fatalf("download aborted by delete: %v", err)
		}
		if err := <-deleted; err != nil {
			t.Fatalf("delete after stream drain: %v", err)
		}
		if out.Len() != testConfig.N*bmmc.RecordBytes {
			t.Fatalf("download truncated: %d bytes", out.Len())
		}
	}()
	waitNoLeak(t, base)
}

// blockingWriter signals the first write, then holds the stream open until
// released.
type blockingWriter struct {
	w       io.Writer
	started chan struct{}
	release chan struct{}
}

func (b blockingWriter) Write(p []byte) (int, error) {
	select {
	case <-b.started:
	default:
		close(b.started)
		<-b.release
	}
	return b.w.Write(p)
}

// TestDownloadLastByteFreesDataset pins when a download stops refusing
// jobs: just before the write that delivers the body's last byte, so a
// client that holds the whole body can chain its next job on the dataset
// at once. The response writer submits that job from inside the Write that
// delivers the last byte; a stream that refuses binds until Dump returns
// answers 409. The job binds mid-write but must run only after the
// download, so the body is still the upload and the job then completes.
func TestDownloadLastByteFreesDataset(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Workers: 1, QueueDepth: 4})
	d := createDS(t, m, BackendFile)
	recs := make([]bmmc.Record, testConfig.N)
	for i := range recs {
		recs[i] = bmmc.Record{Key: uint64(i) * 7919, Tag: ^uint64(i)}
	}
	in := encodeRecords(recs)
	if err := d.Upload(context.Background(), bytes.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	rw := &submitOnLastByte{header: http.Header{}, left: len(in), submit: func() (*Job, error) {
		return m.Submit(SubmitRequest{Dataset: d.id, Perm: string(bmmc.MarshalPermutation(bmmc.GrayCode(testConfig.LgN())))})
	}}
	NewHandler(m, nil).ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/datasets/"+d.id+"/output", nil))
	if rw.job == nil {
		t.Fatalf("job submitted on the download's last byte: %v", rw.err)
	}
	if !bytes.Equal(rw.body.Bytes(), in) {
		t.Fatal("download differs from the upload: the chained job ran mid-download")
	}
	if s := waitTerminal(t, rw.job); s != StateDone {
		t.Fatalf("chained job finished %s: %s", s, rw.job.Status().Error)
	}
}

// TestDatasetFreedBeforeTerminalEvent pins that a job drops its active
// reference on its dataset before it publishes its terminal state, so a
// client that streams as soon as it sees `done` is admitted, not refused
// with "has active jobs". The last load's progress hook takes the entry's
// lock, which dropping that reference needs: while the lock is held no
// terminal event may arrive, and once it is released the event arrives and
// a download is admitted.
func TestDatasetFreedBeforeTerminalEvent(t *testing.T) {
	subscribed := make(chan struct{})
	locked := make(chan *dsEntry, 1)
	cfg := ManagerConfig{Workers: 1, QueueDepth: 4}
	cfg.hook = func(j *Job, ev bmmc.PassEvent) {
		<-subscribed
		if ev.Pass == ev.Passes && ev.Load == ev.Loads {
			j.dsEntry.mu.Lock()
			locked <- j.dsEntry
		}
	}
	m := newTestManager(t, cfg)
	d := createDS(t, m, BackendMem)
	j := dsSubmit(t, m, d, bmmc.BitReversal(testConfig.LgN()))
	events, cancel := j.Subscribe()
	defer cancel()
	close(subscribed)
	<-locked

	terminal := func(ev Event) bool { return ev.Type == EventState && ev.State.Terminal() }
	var early *Event
	wait := time.After(200 * time.Millisecond)
held:
	for {
		select {
		case ev := <-events:
			if terminal(ev) {
				early = &ev
				break held
			}
		case <-wait:
			break held
		}
	}
	d.mu.Unlock()
	if early != nil {
		t.Fatalf("terminal %s event published while the dataset's lock was held, before the job's active reference was dropped", early.State)
	}
	for ev := range events {
		if terminal(ev) {
			if ev.State != StateDone {
				t.Fatalf("job finished %s: %s", ev.State, ev.Error)
			}
			break
		}
	}
	if err := d.Download(context.Background(), io.Discard); err != nil {
		t.Fatalf("download on the done event: %v", err)
	}
}

// submitOnLastByte is a ResponseWriter that records the body and calls
// submit from inside the Write that delivers its last byte.
type submitOnLastByte struct {
	header http.Header
	body   bytes.Buffer
	left   int
	submit func() (*Job, error)
	job    *Job
	err    error
}

func (w *submitOnLastByte) Header() http.Header { return w.header }

func (w *submitOnLastByte) WriteHeader(int) {}

func (w *submitOnLastByte) Write(p []byte) (int, error) {
	w.body.Write(p)
	if w.left -= len(p); w.left == 0 {
		w.job, w.err = w.submit()
	}
	return len(p), nil
}

// waitNoLeak polls the goroutine count back down to the baseline.
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Errorf("goroutine leak: %d before, %d after", base, now)
	}
}

// TestDatasetShutdownDrains pins that Shutdown treats datasets like jobs:
// an in-flight download finishes before storage is reclaimed, queued and
// running dataset jobs drain, and no goroutines leak.
func TestDatasetShutdownDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		cfg := ManagerConfig{Workers: 2, QueueDepth: 8, Dir: t.TempDir()}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.CreateDataset(CreateDatasetRequest{Config: testConfig, Backend: BackendFile})
		if err != nil {
			t.Fatal(err)
		}
		// Run one job through so the dataset is exercised.
		j, err := m.Submit(SubmitRequest{Dataset: d.id, Perm: string(bmmc.MarshalPermutation(bmmc.GrayCode(testConfig.LgN())))})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)

		// Hold a download open across the shutdown call.
		started := make(chan struct{})
		release := make(chan struct{})
		dlErr := make(chan error, 1)
		var out bytes.Buffer
		go func() {
			dlErr <- d.Download(context.Background(), blockingWriter{&out, started, release})
		}()
		<-started

		shutdownDone := make(chan struct{})
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.Shutdown(ctx)
			close(shutdownDone)
		}()
		select {
		case <-shutdownDone:
			t.Fatal("shutdown completed while a dataset download was streaming")
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		if err := <-dlErr; err != nil {
			t.Fatalf("download aborted by shutdown: %v", err)
		}
		select {
		case <-shutdownDone:
		case <-time.After(10 * time.Second):
			t.Fatal("shutdown did not complete after the stream drained")
		}
		if out.Len() != testConfig.N*bmmc.RecordBytes {
			t.Fatalf("download truncated by shutdown: %d bytes", out.Len())
		}
	}()
	waitNoLeak(t, base)
}

// TestDatasetConflicts pins the 4xx surface of the dataset resource.
func TestDatasetConflicts(t *testing.T) {
	gate := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := ManagerConfig{Workers: 1, QueueDepth: 4, Dir: t.TempDir()}
	cfg.hook = func(j *Job, ev bmmc.PassEvent) {
		if ev.Pass == 1 && ev.Load == 1 {
			once.Do(func() {
				close(gate)
				<-release
			})
		}
	}
	m := newTestManager(t, cfg)
	d := createDS(t, m, BackendMem)
	n := testConfig.LgN()

	// Unknown dataset: 404.
	_, err := m.Submit(SubmitRequest{Dataset: "d9999-nope", Perm: string(bmmc.MarshalPermutation(bmmc.GrayCode(n)))})
	if httpStatus(t, err) != http.StatusNotFound {
		t.Fatalf("unknown dataset submit: %v", err)
	}
	// Backend on a dataset job: 400.
	_, err = m.Submit(SubmitRequest{Dataset: d.id, Backend: BackendFile, Perm: string(bmmc.MarshalPermutation(bmmc.GrayCode(n)))})
	if httpStatus(t, err) != http.StatusBadRequest {
		t.Fatalf("dataset submit with backend: %v", err)
	}
	// AwaitInput on a dataset job: 400.
	_, err = m.Submit(SubmitRequest{Dataset: d.id, AwaitInput: true, Perm: string(bmmc.MarshalPermutation(bmmc.GrayCode(n)))})
	if httpStatus(t, err) != http.StatusBadRequest {
		t.Fatalf("dataset submit with await_input: %v", err)
	}
	// Mismatched geometry: 400.
	other := bmmc.Config{N: 8192, D: 4, B: 8, M: 256}
	_, err = m.Submit(SubmitRequest{Dataset: d.id, Config: other, Perm: string(bmmc.MarshalPermutation(bmmc.GrayCode(other.LgN())))})
	if httpStatus(t, err) != http.StatusBadRequest {
		t.Fatalf("dataset submit with wrong geometry: %v", err)
	}

	// While a job is mid-run: uploads, downloads, and deletes all 409.
	j := dsSubmit(t, m, d, bmmc.BitReversal(n))
	<-gate
	if httpStatus(t, d.Upload(context.Background(), bytes.NewReader(nil))) != http.StatusConflict {
		t.Fatal("upload while job active not refused")
	}
	if httpStatus(t, d.Download(context.Background(), io.Discard)) != http.StatusConflict {
		t.Fatal("download while job active not refused")
	}
	_, err = m.DeleteDataset(d.id)
	if httpStatus(t, err) != http.StatusConflict {
		t.Fatalf("delete while job active: %v", err)
	}
	close(release)
	if s := waitTerminal(t, j); s != StateDone {
		t.Fatalf("gated job finished %s: %s", s, j.Status().Error)
	}

	// Job-level data plane on a dataset job: 409 pointing at the dataset.
	if err := j.Download(context.Background(), io.Discard); err == nil ||
		!strings.Contains(err.Error(), "/v1/datasets/") {
		t.Fatalf("dataset job served job-level output: %v", err)
	}

	// In-flight upload excludes job submission: 409.
	pr, pw := io.Pipe()
	upErr := make(chan error, 1)
	go func() { upErr <- d.Upload(context.Background(), pr) }()
	waitStreams(t, d)
	_, err = m.Submit(SubmitRequest{Dataset: d.id, Perm: string(bmmc.MarshalPermutation(bmmc.GrayCode(n)))})
	if httpStatus(t, err) != http.StatusConflict {
		t.Fatalf("submit during upload: %v", err)
	}
	recs := make([]bmmc.Record, testConfig.N)
	for i := range recs {
		recs[i] = bmmc.MakeRecord(uint64(i))
	}
	if _, err := pw.Write(encodeRecords(recs)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-upErr; err != nil {
		t.Fatal(err)
	}
}

// waitStreams polls until the dataset registers an in-flight stream.
func waitStreams(t *testing.T, d *dsEntry) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		n := d.streams
		d.mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("upload stream never registered")
}
