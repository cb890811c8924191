package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/service"
)

// startDaemon serves a fresh manager over httptest and returns a client.
func startDaemon(t *testing.T, cfg service.ManagerConfig) (*client.Client, *service.Manager) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(m, nil))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return client.New(srv.URL), m
}

// TestServiceEndToEnd is the PR's acceptance run: Submit + Upload + Watch
// + Download of a 2^20-record bit-reversal against a sharded file backend
// must be record-identical to a direct Engine.Execute of the same data,
// with identical parallel-I/O statistics reported by /v1/metrics — for two
// concurrent jobs on one daemon.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 2^20-record service run")
	}
	cfg := bmmc.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}
	p := bmmc.BitReversal(cfg.LgN())

	// User data distinct from the canonical records.
	input := make([]byte, cfg.N*bmmc.RecordBytes)
	for i := 0; i < cfg.N; i++ {
		bmmc.Record{Key: uint64(i)*0x9e3779b9 + 7, Tag: uint64(i)}.Encode(input[i*bmmc.RecordBytes:])
	}

	// Oracle: the library used directly, in memory.
	oracle, err := bmmc.CreateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if err := oracle.Load(context.Background(), bytes.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	eng := bmmc.NewEngine()
	pl, err := eng.Plan(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	oracleRep, err := eng.Execute(context.Background(), pl, oracle)
	if err != nil {
		t.Fatal(err)
	}
	oracleStats := oracle.Stats()
	var want bytes.Buffer
	if err := oracle.Dump(context.Background(), &want); err != nil {
		t.Fatal(err)
	}

	c, _ := startDaemon(t, service.ManagerConfig{Workers: 2, QueueDepth: 4, Shards: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Submit sequentially (so the shared plan cache serves the second job),
	// then drive upload/watch/download concurrently.
	req := client.NewSubmitRequest(cfg, p)
	req.Backend = client.BackendSharded
	req.AwaitInput = true // hold each job for its upload; workers must not race the data plane
	var jobs [2]*client.JobStatus
	for i := range jobs {
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st.Plan == nil || st.Plan.Class != "BMMC" || st.Plan.CostIOs != oracleRep.ParallelIOs {
			t.Fatalf("submit plan summary %+v does not quote the oracle cost %d", st.Plan, oracleRep.ParallelIOs)
		}
		jobs[i] = st
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, st := range jobs {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			// Subscribe before uploading: the await-input job is still
			// queued when the watch's first (snapshot) event arrives, so
			// none of its progress can finish ahead of the subscription.
			subscribed := make(chan struct{})
			type watched struct {
				final *client.JobStatus
				err   error
			}
			done := make(chan watched, 1)
			progress := 0
			go func() {
				first := true
				final, err := c.Watch(ctx, id, func(ev client.Event) {
					if first {
						first = false
						close(subscribed)
					}
					if ev.Progress != nil {
						progress++
					}
				})
				done <- watched{final, err}
			}()
			select {
			case <-subscribed:
			case w := <-done:
				errs <- fmt.Errorf("job %s: watch ended before its snapshot: %v", id, w.err)
				return
			}
			if err := c.Upload(ctx, id, bytes.NewReader(input)); err != nil {
				errs <- err
				return
			}
			w := <-done
			final, err := w.final, w.err
			if err != nil {
				errs <- err
				return
			}
			if final.State != client.StateDone {
				errs <- errors.New("job " + id + " finished " + string(final.State) + ": " + final.Error)
				return
			}
			if progress == 0 {
				errs <- errors.New("job " + id + ": no progress events observed")
				return
			}
			if final.Report.ParallelIOs != oracleRep.ParallelIOs ||
				final.Report.ParallelReads != oracleStats.ParallelReads ||
				final.Report.ParallelWrites != oracleStats.ParallelWrites {
				errs <- errors.New("job " + id + ": per-job stats differ from the oracle run")
				return
			}
			var out bytes.Buffer
			out.Grow(len(input))
			if err := c.Download(ctx, id, &out); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out.Bytes(), want.Bytes()) {
				errs <- errors.New("job " + id + ": downloaded records differ from the oracle output")
				return
			}
			errs <- nil
		}(st.ID)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// /v1/metrics aggregates exactly the two jobs' parallel I/Os — the
	// same counts the oracle measured, twice.
	mt, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mt.ParallelIOs != 2*oracleStats.ParallelIOs() ||
		mt.ParallelReads != 2*oracleStats.ParallelReads ||
		mt.ParallelWrites != 2*oracleStats.ParallelWrites {
		t.Fatalf("aggregate metrics %+v != 2x oracle stats %v", mt, oracleStats)
	}
	if mt.JobsDone != 2 || mt.PlanCacheHits != 1 || mt.PlanCacheMisses != 1 {
		t.Fatalf("metrics %+v: want 2 done jobs and a 1/1 plan-cache split", mt)
	}
}

// TestServiceValidation walks the HTTP error surface: invalid submissions,
// unknown jobs, and wrong-state data-plane calls.
func TestServiceValidation(t *testing.T) {
	c, _ := startDaemon(t, service.ManagerConfig{Workers: 1, QueueDepth: 2})
	ctx := context.Background()
	small := bmmc.Config{N: 4096, D: 4, B: 8, M: 256}

	apiStatus := func(err error) int {
		var ae *client.APIError
		if errors.As(err, &ae) {
			return ae.Status
		}
		return 0
	}

	// Invalid geometry.
	bad := client.NewSubmitRequest(small, bmmc.BitReversal(small.LgN()))
	bad.Config.N = 100
	if _, err := c.Submit(ctx, bad); apiStatus(err) != 400 {
		t.Errorf("invalid geometry: got %v, want HTTP 400", err)
	}
	// Garbage permutation text.
	if _, err := c.Submit(ctx, client.SubmitRequest{Config: small, Perm: "nonsense"}); apiStatus(err) != 400 {
		t.Errorf("garbage permutation: got %v, want HTTP 400", err)
	}
	// Wrong address width.
	if _, err := c.Submit(ctx, client.NewSubmitRequest(small, bmmc.BitReversal(8))); apiStatus(err) != 400 {
		t.Errorf("wrong-width permutation: got %v, want HTTP 400", err)
	}
	// Unknown backend.
	req := client.NewSubmitRequest(small, bmmc.BitReversal(small.LgN()))
	req.Backend = "tape"
	if _, err := c.Submit(ctx, req); apiStatus(err) != 400 {
		t.Errorf("unknown backend: got %v, want HTTP 400", err)
	}
	// Unknown job id.
	if _, err := c.Status(ctx, "nope"); apiStatus(err) != 404 {
		t.Errorf("unknown job: got %v, want HTTP 404", err)
	}
	if err := c.Download(ctx, "nope", &bytes.Buffer{}); apiStatus(err) != 404 {
		t.Errorf("unknown job output: got %v, want HTTP 404", err)
	}

	// A completed job rejects further input and double downloads work.
	st, err := c.Submit(ctx, client.NewSubmitRequest(small, bmmc.GrayCode(small.LgN())))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("job finished %s", final.State)
	}
	if err := c.Upload(ctx, st.ID, bytes.NewReader(make([]byte, small.N*bmmc.RecordBytes))); apiStatus(err) != 409 {
		t.Errorf("late upload: got %v, want HTTP 409", err)
	}
	var out1, out2 bytes.Buffer
	if err := c.Download(ctx, st.ID, &out1); err != nil {
		t.Fatal(err)
	}
	if err := c.Download(ctx, st.ID, &out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("repeated downloads differ")
	}

	// DELETE on the terminal job releases its storage; output is then gone.
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Download(ctx, st.ID, &bytes.Buffer{}); apiStatus(err) != 410 {
		t.Errorf("released output: got %v, want HTTP 410", err)
	}
}

// TestDetectSubmitRoundTrip is the satellite path: a target vector with an
// affine offset (vector reversal: c = all ones) detected at run time, the
// detected permutation marshaled, and the marshal submitted to the service
// — the job must execute it identically to the generating permutation.
func TestDetectSubmitRoundTrip(t *testing.T) {
	small := bmmc.Config{N: 4096, D: 4, B: 8, M: 256}
	p := bmmc.VectorReversal(small.LgN())

	res, err := bmmc.DetectTargets(small, p.Apply)
	if err != nil {
		t.Fatal(err)
	}
	detected, err := res.Permutation()
	if err != nil {
		t.Fatal(err)
	}
	if !detected.Equal(p) {
		t.Fatalf("detection returned %v, want %v", detected, p)
	}

	c, _ := startDaemon(t, service.ManagerConfig{Workers: 1, QueueDepth: 2})
	ctx := context.Background()
	st, err := c.Submit(ctx, client.SubmitRequest{
		Config: small,
		Perm:   string(bmmc.MarshalPermutation(detected)),
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	var out bytes.Buffer
	if err := c.Download(ctx, st.ID, &out); err != nil {
		t.Fatal(err)
	}
	data := out.Bytes()
	for x := uint64(0); x < uint64(small.N); x++ {
		if got := bmmc.DecodeRecord(data[p.Apply(x)*bmmc.RecordBytes:]); got.Key != x {
			t.Fatalf("address %d holds key %d, want %d: affine offset lost in the submit round trip", p.Apply(x), got.Key, x)
		}
	}
}
