package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	bmmc "repro"
	"repro/internal/pdm"
)

// Chaos e2e for the daemon: an injected disk fault mid-run must fail the
// job with the fault's message, release its admission slot, leave
// /v1/metrics consistent, and — for dataset-bound jobs — leave the shared
// dataset usable by a retried job.

// TestChaosJobFaultReleasesSlot submits a job whose per-job storage is
// wrapped in a flaky backend armed mid-run, from the first pass event on
// the executing goroutine. The job must land in StateFailed with the
// injected fault surfaced in its error, the admission queue must drain,
// and a subsequent clean job on the same daemon must run to completion
// with correct output.
func TestChaosJobFaultReleasesSlot(t *testing.T) {
	var inject atomic.Bool
	inject.Store(true)
	var armed atomic.Pointer[pdm.FlakyBackend]
	cfg := ManagerConfig{
		Workers:    1,
		QueueDepth: 4,
		WrapBackend: func(kind string, be bmmc.Backend) bmmc.Backend {
			if !inject.Load() {
				return be
			}
			// Disarmed through provisioning's canonical load; the hook
			// below arms it once the job is actually executing, so the
			// fault lands on the third counted mid-run operation.
			fb := pdm.NewFlakyBackend(be, pdm.FlakyOptions{FailAfterN: 3})
			fb.Disarm()
			armed.Store(fb)
			return fb
		},
	}
	cfg.hook = func(j *Job, ev bmmc.PassEvent) {
		if fb := armed.Load(); fb != nil {
			fb.Arm()
		}
	}
	m := newTestManager(t, cfg)
	srv := httptest.NewServer(NewHandler(m, nil))
	t.Cleanup(srv.Close)
	p := bmmc.BitReversal(testConfig.LgN())

	j, err := m.Submit(submitReq(t, testConfig, p))
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StateFailed {
		t.Fatalf("faulted job finished %s (%q), want failed", s, j.Status().Error)
	}
	if msg := j.Status().Error; !strings.Contains(msg, "injected disk fault") {
		t.Fatalf("job error %q does not surface the injected fault", msg)
	}

	// The slot is released and the failure is visible in the gauges.
	mt := m.Metrics()
	if mt.QueueDepth != 0 || mt.JobsFailed != 1 || mt.JobsRunning != 0 {
		t.Fatalf("after faulted job: queue=%d failed=%d running=%d, want 0/1/0",
			mt.QueueDepth, mt.JobsFailed, mt.JobsRunning)
	}

	// A clean job reuses the freed slot and completes correctly.
	inject.Store(false)
	j2, err := m.Submit(submitReq(t, testConfig, p))
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j2); s != StateDone {
		t.Fatalf("retry finished %s (%s), want done", s, j2.Status().Error)
	}
	var out bytes.Buffer
	if err := j2.Download(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	data := out.Bytes()
	for x := uint64(0); x < uint64(testConfig.N); x++ {
		if got := bmmc.DecodeRecord(data[p.Apply(x)*bmmc.RecordBytes:]); got.Key != x {
			t.Fatalf("address %d holds key %d, want %d", p.Apply(x), got.Key, x)
		}
	}

	// /v1/metrics agrees with the in-process gauges.
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire Metrics
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.JobsSubmitted != 2 || wire.JobsFailed != 1 || wire.JobsDone != 1 || wire.QueueDepth != 0 {
		t.Fatalf("/v1/metrics inconsistent after chaos: %+v", wire)
	}
	if rep := j2.Status().Report; rep == nil || wire.ParallelIOs != rep.ParallelIOs {
		t.Fatalf("/v1/metrics aggregates %d parallel I/Os, want only the clean job's %+v",
			wire.ParallelIOs, j2.Status().Report)
	}
}

// TestChaosDatasetSurvivesFaultedJob binds two jobs to one shared dataset
// whose storage faults during the first. The failed pass must not swap
// portions, so the dataset still holds its canonical input; the disarmed
// retry permutes it correctly, and the dataset gauges count both attempts.
func TestChaosDatasetSurvivesFaultedJob(t *testing.T) {
	var flaky *pdm.FlakyBackend
	m := newTestManager(t, ManagerConfig{
		Workers:    1,
		QueueDepth: 4,
		WrapBackend: func(kind string, be bmmc.Backend) bmmc.Backend {
			fb := pdm.NewFlakyBackend(be, pdm.FlakyOptions{FailAfterN: 1})
			fb.Disarm() // dataset provisioning loads canonical records clean
			flaky = fb
			return fb
		},
	})
	d := createDS(t, m, BackendFile)
	if flaky == nil {
		t.Fatal("WrapBackend seam was not applied to dataset storage")
	}
	p := bmmc.GrayCode(testConfig.LgN())

	// Job 1: every counted operation faults — it cannot complete a pass.
	flaky.Reset()
	flaky.Arm()
	j1 := dsSubmit(t, m, d, p)
	if s := waitTerminal(t, j1); s != StateFailed {
		t.Fatalf("faulted dataset job finished %s (%q), want failed", s, j1.Status().Error)
	}
	if msg := j1.Status().Error; !strings.Contains(msg, "injected disk fault") {
		t.Fatalf("job error %q does not surface the injected fault", msg)
	}
	if st := d.Status(); st.Released {
		t.Fatal("dataset released by a failed job")
	}

	// Job 2 on the same handle, injection off: the dataset's input must be
	// intact, so the output is the permutation of the canonical records.
	flaky.Disarm()
	j2 := dsSubmit(t, m, d, p)
	if s := waitTerminal(t, j2); s != StateDone {
		t.Fatalf("retry on dataset finished %s (%s), want done", s, j2.Status().Error)
	}
	var out bytes.Buffer
	if err := d.Download(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	data := out.Bytes()
	for x := uint64(0); x < uint64(testConfig.N); x++ {
		if got := bmmc.DecodeRecord(data[p.Apply(x)*bmmc.RecordBytes:]); got.Key != x {
			t.Fatalf("address %d holds key %d, want %d: failed job corrupted the dataset", p.Apply(x), got.Key, x)
		}
	}

	mt := m.Metrics()
	if mt.DatasetJobsRun != 2 || mt.DatasetsActive != 1 || mt.JobsFailed != 1 || mt.JobsDone != 1 || mt.QueueDepth != 0 {
		t.Fatalf("dataset gauges inconsistent after chaos: %+v", mt)
	}
}

// TestChaosUploadWriteFault: a disk fault in the middle of a dataset
// upload is the daemon's failure, not the client's: the PUT answers 500
// (a short stream still answers 400), the dataset still serves the records
// it held before, and once the disk recovers a retried upload and a job on
// it both succeed.
func TestChaosUploadWriteFault(t *testing.T) {
	var flaky *pdm.FlakyBackend
	m := newTestManager(t, ManagerConfig{
		Workers:    1,
		QueueDepth: 4,
		WrapBackend: func(kind string, be bmmc.Backend) bmmc.Backend {
			// The 200th block write fails: mid-upload, after 199 of the
			// upload's 512 blocks have landed.
			fb := pdm.NewFlakyBackend(be, pdm.FlakyOptions{FailAfterN: 200, Mode: pdm.FaultWriteOnly})
			fb.Disarm() // dataset provisioning loads canonical records clean
			flaky = fb
			return fb
		},
	})
	srv := httptest.NewServer(NewHandler(m, nil))
	t.Cleanup(srv.Close)
	d := createDS(t, m, BackendFile)
	if flaky == nil {
		t.Fatal("WrapBackend seam was not applied to dataset storage")
	}
	wire := func(key func(i uint64) uint64) []byte {
		recs := make([]bmmc.Record, testConfig.N)
		for i := range recs {
			recs[i] = bmmc.MakeRecord(key(uint64(i)))
		}
		return encodeRecords(recs)
	}
	before := wire(func(i uint64) uint64 { return 3*i + 1 })
	next := wire(func(i uint64) uint64 { return i ^ 0x5a5 })
	put := func(body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/datasets/"+d.id+"/input", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	download := func() []byte {
		t.Helper()
		var out bytes.Buffer
		if err := d.Download(context.Background(), &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if status := put(before); status != http.StatusNoContent {
		t.Fatalf("clean upload answered %d", status)
	}

	flaky.Reset()
	flaky.Arm()
	status := put(next)
	flaky.Disarm()
	if status != http.StatusInternalServerError {
		t.Errorf("upload with a disk fault answered %d, want 500", status)
	}
	if got := download(); !bytes.Equal(got, before) {
		changed := 0
		for i := 0; i < len(got); i += bmmc.RecordBytes {
			if !bytes.Equal(got[i:i+bmmc.RecordBytes], before[i:i+bmmc.RecordBytes]) {
				changed++
			}
		}
		t.Fatalf("faulted upload replaced %d of %d committed records", changed, testConfig.N)
	}

	// A short stream stays the client's fault.
	if status := httpStatus(t, d.Upload(context.Background(), bytes.NewReader(next[:len(next)/2]))); status != http.StatusBadRequest {
		t.Fatalf("short upload answered %d, want 400", status)
	}
	if !bytes.Equal(download(), before) {
		t.Fatal("short upload changed the committed records")
	}

	if status := put(next); status != http.StatusNoContent {
		t.Fatalf("retried upload answered %d", status)
	}
	p := bmmc.GrayCode(testConfig.LgN())
	j := dsSubmit(t, m, d, p)
	if s := waitTerminal(t, j); s != StateDone {
		t.Fatalf("job after the retried upload finished %s (%s), want done", s, j.Status().Error)
	}
	got := download()
	for x := uint64(0); x < uint64(testConfig.N); x++ {
		want := bmmc.DecodeRecord(next[x*bmmc.RecordBytes:])
		if rec := bmmc.DecodeRecord(got[p.Apply(x)*bmmc.RecordBytes:]); rec != want {
			t.Fatalf("address %d holds %+v, want %+v", p.Apply(x), rec, want)
		}
	}
}
