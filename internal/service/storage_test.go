package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bmmc "repro"
	"repro/internal/obs"
	"repro/internal/pdm"
)

// The pool of spare job storage: a released done standalone job's file or
// sharded storage is kept for the next standalone job of the same kind
// and geometry, which then neither provisions nor first-touches pages.

// runJob submits a standalone job of the given kind and waits for it to
// finish. With recs it awaits input and uploads recs; without, it runs on
// the canonical fill. It reports an error unless the job finished done,
// and calls no t.Fatal, so client goroutines can run it.
func runJob(m *Manager, kind string, cfg bmmc.Config, p bmmc.Permutation, recs []bmmc.Record) (*Job, error) {
	j, err := m.Submit(SubmitRequest{Config: cfg, Perm: string(bmmc.MarshalPermutation(p)),
		Backend: kind, AwaitInput: recs != nil})
	if err != nil {
		return nil, err
	}
	if recs != nil {
		if err := j.Upload(context.Background(), bytes.NewReader(encodeRecords(recs))); err != nil {
			return j, err
		}
	}
	ch, stop := j.Subscribe()
	defer stop()
	for range ch { // closes after the terminal event
	}
	if s := j.State(); s != StateDone {
		return j, fmt.Errorf("job %s finished %s (%s), want done", j.ID(), s, j.Status().Error)
	}
	return j, nil
}

// outputErr reports the first address of j's download that does not hold
// recs permuted by p, that is the record of source x at address p(x). Nil
// recs stand for the canonical records.
func outputErr(j *Job, p bmmc.Permutation, recs []bmmc.Record) error {
	var out bytes.Buffer
	if err := j.Download(context.Background(), &out); err != nil {
		return err
	}
	data := out.Bytes()
	for x := 0; x < len(data)/bmmc.RecordBytes; x++ {
		want := bmmc.MakeRecord(uint64(x))
		if recs != nil {
			want = recs[x]
		}
		y := p.Apply(uint64(x))
		if got := bmmc.DecodeRecord(data[y*bmmc.RecordBytes:]); got != want {
			return fmt.Errorf("job %s: address %d holds %+v, want record %d %+v", j.ID(), y, got, x, want)
		}
	}
	return nil
}

// storageJob is runJob on the test goroutine.
func storageJob(t *testing.T, m *Manager, kind string, cfg bmmc.Config, p bmmc.Permutation, recs []bmmc.Record) *Job {
	t.Helper()
	j, err := runJob(m, kind, cfg, p, recs)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// checkOutput is outputErr on the test goroutine.
func checkOutput(t *testing.T, j *Job, p bmmc.Permutation, recs []bmmc.Record) {
	t.Helper()
	if err := outputErr(j, p, recs); err != nil {
		t.Fatal(err)
	}
}

// releaseJob releases a terminal job, as DELETE /v1/jobs/{id} does.
func releaseJob(t *testing.T, m *Manager, j *Job) {
	t.Helper()
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
}

// taggedRecords returns N distinct records marked with tag.
func taggedRecords(n int, tag uint64) []bmmc.Record {
	recs := make([]bmmc.Record, n)
	for i := range recs {
		recs[i] = bmmc.Record{Key: uint64(i)*0x9e3779b97f4a7c15 + tag, Tag: tag}
	}
	return recs
}

// jobDirs lists the job storage directories under dir.
func jobDirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "job-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// storageCount reads bmmc_job_storage_total{source}.
func storageCount(m *Manager, source string) int {
	return int(m.obs.storage.With(source).Value())
}

// exists reports whether path exists.
func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// waitGone waits for path to be removed: a job that did not finish done
// is released by its worker just after it turns terminal.
func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for exists(path) {
		if time.Now().After(deadline) {
			t.Fatalf("%s survived its job's release", path)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobStorageReusedBySameGeometry: the second of two sequential
// same-geometry file jobs runs in the first one's storage directory, and
// its output is its own upload permuted. The first job stays released:
// its download answers 410 and its upload 409.
func TestJobStorageReusedBySameGeometry(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Workers: 1, QueueDepth: 2, Dir: dir})
	p1, p2 := bmmc.BitReversal(testConfig.LgN()), bmmc.GrayCode(testConfig.LgN())
	recs1, recs2 := taggedRecords(testConfig.N, 1), taggedRecords(testConfig.N, 2)

	j1 := storageJob(t, m, BackendFile, testConfig, p1, recs1)
	checkOutput(t, j1, p1, recs1)
	releaseJob(t, m, j1)
	j2 := storageJob(t, m, BackendFile, testConfig, p2, recs2)
	checkOutput(t, j2, p2, recs2)

	if j2.dsEntry.dir != j1.dsEntry.dir || j2.dsEntry.ds != j1.dsEntry.ds {
		t.Fatalf("second job's storage %s is not the first's %s", j2.dsEntry.dir, j1.dsEntry.dir)
	}
	if got := jobDirs(t, dir); len(got) != 1 || filepath.Join(dir, got[0]) != j1.dsEntry.dir {
		t.Fatalf("job directories %v, want only the first job's", got)
	}
	if j2.dsEntry == j1.dsEntry {
		t.Fatal("the reusing job shares the first job's entry")
	}
	if !j1.dsEntry.Status().Released || !j1.Status().Released {
		t.Fatal("the first job's entry is no longer released")
	}
	if err := j1.Download(context.Background(), &bytes.Buffer{}); httpStatus(t, err) != 410 {
		t.Fatalf("released job's download: %v, want 410", err)
	}
	if err := j1.Upload(context.Background(), bytes.NewReader(encodeRecords(recs1))); httpStatus(t, err) != 409 {
		t.Fatalf("released job's upload: %v, want 409", err)
	}
	if st := j2.Status(); st.Report == nil || st.Report.ParallelIOs != j2.Plan().CostIOs {
		t.Fatalf("reusing job's report %+v, want exactly its planned %d parallel I/Os", st.Report, j2.Plan().CostIOs)
	}
	if got, want := m.Metrics().ParallelIOs, j1.Plan().CostIOs+j2.Plan().CostIOs; got != want {
		t.Fatalf("aggregate parallel I/Os %d, want %d", got, want)
	}
	if prov, reused := storageCount(m, "provisioned"), storageCount(m, "reused"); prov != 1 || reused != 1 {
		t.Fatalf("storage provisioned %d, reused %d; want 1 and 1", prov, reused)
	}
}

// TestJobStorageReuseRefillsCanonical: a job without await-input on reused
// storage runs on the canonical records, never on the previous job's.
func TestJobStorageReuseRefillsCanonical(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Workers: 1, QueueDepth: 2})
	p := bmmc.BitReversal(testConfig.LgN())
	recs := taggedRecords(testConfig.N, 7)

	j1 := storageJob(t, m, BackendSharded, testConfig, p, recs)
	releaseJob(t, m, j1)
	// The previous job's output is p applied to recs; applying p again
	// would hand them back in upload order if the fill had not run.
	j2 := storageJob(t, m, BackendSharded, testConfig, p, nil)
	if j2.dsEntry.ds != j1.dsEntry.ds {
		t.Fatal("the second sharded job did not reuse the first one's storage")
	}
	checkOutput(t, j2, p, nil)
	if st := j2.Status(); st.InputLoaded {
		t.Fatal("a job on reused storage reports loaded input")
	}
}

// TestJobStorageNotReusedAfterFailureOrMem: a failed job's storage is torn
// down, not pooled, and so is a mem job's.
func TestJobStorageNotReusedAfterFailureOrMem(t *testing.T) {
	var inject atomic.Bool
	inject.Store(true)
	var armed atomic.Pointer[pdm.FlakyBackend]
	dir := t.TempDir()
	cfg := ManagerConfig{Workers: 1, QueueDepth: 2, Dir: dir,
		WrapBackend: func(_ string, be bmmc.Backend) bmmc.Backend {
			if !inject.Load() {
				return be
			}
			fb := pdm.NewFlakyBackend(be, pdm.FlakyOptions{FailAfterN: 3})
			fb.Disarm()
			armed.Store(fb)
			return fb
		}}
	cfg.hook = func(*Job, bmmc.PassEvent) {
		if fb := armed.Load(); fb != nil {
			fb.Arm()
		}
	}
	m := newTestManager(t, cfg)
	p := bmmc.BitReversal(testConfig.LgN())

	req := submitReq(t, testConfig, p)
	req.Backend = BackendFile
	failed, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, failed); s != StateFailed {
		t.Fatalf("faulted job finished %s, want failed", s)
	}
	inject.Store(false)
	armed.Store(nil)
	waitGone(t, failed.dsEntry.dir)
	j := storageJob(t, m, BackendFile, testConfig, p, nil)
	if j.dsEntry.ds == failed.dsEntry.ds {
		t.Fatal("a job reused a failed job's storage")
	}
	checkOutput(t, j, p, nil)

	mem1 := storageJob(t, m, BackendMem, testConfig, p, nil)
	releaseJob(t, m, mem1)
	mem2 := storageJob(t, m, BackendMem, testConfig, p, nil)
	if mem2.dsEntry.ds == mem1.dsEntry.ds {
		t.Fatal("a mem job reused a released mem job's storage")
	}
	checkOutput(t, mem2, p, nil)
	if prov, reused := storageCount(m, "provisioned"), storageCount(m, "reused"); prov != 4 || reused != 0 {
		t.Fatalf("storage provisioned %d, reused %d; want 4 and 0", prov, reused)
	}
}

// TestJobStorageKeyedByKindAndConfig: a spare serves only a job of its own
// kind and geometry; any other provisions fresh storage.
func TestJobStorageKeyedByKindAndConfig(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Workers: 4, QueueDepth: 2})
	p := bmmc.GrayCode(testConfig.LgN())
	other := bmmc.Config{N: testConfig.N, D: 2 * testConfig.D, B: testConfig.B, M: testConfig.M}
	po := bmmc.GrayCode(other.LgN())

	file := storageJob(t, m, BackendFile, testConfig, p, nil)
	releaseJob(t, m, file)
	sharded := storageJob(t, m, BackendSharded, testConfig, p, nil)
	releaseJob(t, m, sharded)
	geom := storageJob(t, m, BackendFile, other, po, nil)
	checkOutput(t, geom, po, nil)
	releaseJob(t, m, geom)
	if sharded.dsEntry.ds == file.dsEntry.ds || geom.dsEntry.ds == file.dsEntry.ds || geom.dsEntry.ds == sharded.dsEntry.ds {
		t.Fatal("a job of another kind or geometry took a spare")
	}
	for _, want := range []*Job{file, sharded, geom} {
		st := want.dsEntry.Status()
		j := storageJob(t, m, st.Backend, st.Config, bmmc.GrayCode(st.Config.LgN()), nil)
		if j.dsEntry.ds != want.dsEntry.ds {
			t.Fatalf("a %s job on %v did not take its own kind's spare", st.Backend, st.Config)
		}
		checkOutput(t, j, bmmc.GrayCode(st.Config.LgN()), nil)
	}
	if prov, reused := storageCount(m, "provisioned"), storageCount(m, "reused"); prov != 3 || reused != 3 {
		t.Fatalf("storage provisioned %d, reused %d; want 3 and 3", prov, reused)
	}
}

// TestJobStorageFullPoolEvictsOldest: the pool holds at most Workers
// spares; a release into a full pool tears the oldest spare down, and the
// next job takes the newest.
func TestJobStorageFullPoolEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Workers: 2, QueueDepth: 4, Dir: dir})
	p := bmmc.BitReversal(testConfig.LgN())
	// Three jobs done before any release hold three storages.
	jobs := make([]*Job, 3)
	for i := range jobs {
		jobs[i] = storageJob(t, m, BackendFile, testConfig, p, nil)
	}
	for _, j := range jobs {
		releaseJob(t, m, j)
	}
	if exists(jobs[0].dsEntry.dir) {
		t.Fatal("the oldest spare survived a release into a full pool")
	}
	for _, j := range jobs[1:] {
		if !exists(j.dsEntry.dir) {
			t.Fatalf("spare %s was torn down", j.dsEntry.dir)
		}
	}
	if got := jobDirs(t, dir); len(got) != 2 {
		t.Fatalf("job directories %v, want the two newest spares", got)
	}
	next := storageJob(t, m, BackendFile, testConfig, p, nil)
	if next.dsEntry.ds != jobs[2].dsEntry.ds {
		t.Fatal("the next job did not take the newest spare")
	}
	checkOutput(t, next, p, nil)
}

// TestJobStorageConcurrentClients: four clients each run ten file jobs,
// half awaiting input and half on the canonical fill, on two workers.
// Every output is right; at most Workers job directories outlive the last
// release, and none outlives Shutdown.
func TestJobStorageConcurrentClients(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	perms := []bmmc.Permutation{bmmc.BitReversal(testConfig.LgN()), bmmc.GrayCode(testConfig.LgN())}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p := perms[(c+i)%2]
				var recs []bmmc.Record
				if i%2 == 0 {
					recs = taggedRecords(testConfig.N, uint64(100*c+i))
				}
				if err := clientJob(m, p, recs); err != nil {
					t.Errorf("client %d job %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := jobDirs(t, dir); len(got) > 2 {
		t.Fatalf("%d job directories outlive the last release, want at most 2: %v", len(got), got)
	}
	if r := storageCount(m, "reused"); r == 0 {
		t.Error("no job reused storage")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Shutdown(ctx)
	if got := jobDirs(t, dir); len(got) != 0 {
		t.Fatalf("job directories %v outlive Shutdown", got)
	}
}

// clientJob runs one file job the way a client does — submit, upload when
// recs is set, wait, download, check, release — and reports the first
// fault.
func clientJob(m *Manager, p bmmc.Permutation, recs []bmmc.Record) error {
	j, err := runJob(m, BackendFile, testConfig, p, recs)
	if j != nil {
		defer m.Cancel(j.ID())
	}
	if err != nil {
		return err
	}
	return outputErr(j, p, recs)
}

// TestJobStorageSinkStaysWithNewJob forces the window between finish and
// the end of run: the finished job is released and the next job starts on
// its storage, sink included, before the old run clears the sink. The
// old run must leave the new job's buffer in place, so the new job's trace
// still holds the io spans of its passes.
func TestJobStorageSinkStaysWithNewJob(t *testing.T) {
	var m *Manager
	var second atomic.Pointer[Job]
	var old atomic.Pointer[dsEntry]
	var armed atomic.Bool
	started := make(chan struct{})
	var first, next sync.Once
	cfg := ManagerConfig{Workers: 2, QueueDepth: 4}
	cfg.afterFinish = func(j *Job) {
		first.Do(func() {
			old.Store(j.dsEntry)
			if _, err := m.Cancel(j.ID()); err != nil {
				t.Error(err)
			}
			armed.Store(true)
			req := submitReq(t, testConfig, bmmc.GrayCode(testConfig.LgN()))
			req.Backend = BackendFile
			j2, err := m.Submit(req)
			if err != nil {
				t.Error(err)
				close(started)
				return
			}
			second.Store(j2)
			<-started // the second job runs, its buffer in the sink
		})
	}
	cfg.hook = func(j *Job, ev bmmc.PassEvent) {
		if !armed.Load() || ev.Pass != 1 || ev.Load != 0 {
			return
		}
		next.Do(func() {
			close(started)
			// Hold the second job's first pass until the first run has
			// returned: retiring its ticket is the last thing it does.
			d := old.Load()
			deadline := time.Now().Add(5 * time.Second)
			for {
				d.mu.Lock()
				retired := d.serving > 0
				d.mu.Unlock()
				if retired {
					return
				}
				if time.Now().After(deadline) {
					t.Error("the first job's run never returned")
					return
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
	m = newTestManager(t, cfg)

	req := submitReq(t, testConfig, bmmc.BitReversal(testConfig.LgN()))
	req.Backend = BackendFile
	j1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j1); s != StateDone {
		t.Fatalf("first job finished %s, want done", s)
	}
	deadline := time.Now().Add(5 * time.Second)
	for second.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	j2 := second.Load()
	if j2 == nil {
		t.Fatal("the second job was never submitted")
	}
	if s := waitTerminal(t, j2); s != StateDone {
		t.Fatalf("second job finished %s (%s), want done", s, j2.Status().Error)
	}
	if j2.dsEntry.ds != j1.dsEntry.ds {
		t.Fatal("the second job did not take the first one's storage")
	}
	checkOutput(t, j2, bmmc.GrayCode(testConfig.LgN()), nil)
	ios := 0
	for _, s := range j2.Trace().Spans {
		if s.Name == obs.SpanIO {
			ios++
		}
	}
	if want := 2 * j2.Status().Report.Passes; ios < want {
		t.Fatalf("second job's trace holds %d io spans, want at least %d (a read and a write per pass)", ios, want)
	}
}
