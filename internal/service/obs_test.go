package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	bmmc "repro"
	"repro/internal/gf2"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// TestObservabilityMLDJob is the observability acceptance run: a
// file-backed MLD job's /metrics exposition must report bmmc_pass_ios
// exactly equal to the job's measured parallel-I/O count, bracketed by
// the exported Theorem 3 / Theorem 21 bound gauges, and the job trace
// must carry one span per pass and one per memoryload wave — all through
// the HTTP surface, with no goroutine left behind.
func TestObservabilityMLDJob(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		m, err := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(m, nil))
		defer srv.Close()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.Shutdown(ctx)
		}()

		n, b, lgm := testConfig.LgN(), testConfig.LgB(), testConfig.LgM()
		rng := bmmc.NewRand(7)
		p, err := bmmc.New(gf2.RandomMLD(rng, n, b, lgm), gf2.RandomVec(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		req := submitReq(t, testConfig, p)
		req.Backend = BackendFile
		j, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if s := waitTerminal(t, j); s != StateDone {
			t.Fatalf("job finished %s: %s", s, j.Status().Error)
		}
		st := j.Status()
		if st.Plan.Class != "MLD" {
			t.Fatalf("plan class = %s, want MLD", st.Plan.Class)
		}
		rep := st.Report

		// Scrape /metrics and hold it to the strict exposition grammar.
		fams := scrapeMetrics(t, srv.URL+"/metrics")

		// Measured pass I/Os must equal the job report exactly and sit
		// inside the exported Thm 3 / Thm 21 bracket.
		measured := obstest.Sum(fams, "bmmc_pass_ios", nil)
		if int(measured) != rep.ParallelIOs {
			t.Errorf("bmmc_pass_ios = %v, want report's %d", measured, rep.ParallelIOs)
		}
		if got := obstest.Sum(fams, "bmmc_pass_ios", map[string]string{"class": "MLD"}); got != measured {
			t.Errorf("bmmc_pass_ios{class=MLD} = %v, want all %v attributed to MLD", got, measured)
		}
		lower, err := obstest.Value(fams, "bmmc_pass_io_bound", map[string]string{"bound": "lower"})
		if err != nil {
			t.Fatal(err)
		}
		upper, err := obstest.Value(fams, "bmmc_pass_io_bound", map[string]string{"bound": "upper"})
		if err != nil {
			t.Fatal(err)
		}
		if lower != st.Plan.LowerBoundIOs || upper != float64(st.Plan.UpperBoundIOs) {
			t.Errorf("bound gauges (%v, %v) != plan bounds (%v, %d)",
				lower, upper, st.Plan.LowerBoundIOs, st.Plan.UpperBoundIOs)
		}
		if measured < lower || measured > upper {
			t.Errorf("measured %v outside bound bracket [%v, %v]", measured, lower, upper)
		}

		// The instrumented backend fed the op-latency histogram: every
		// parallel read and write shows up, per disk.
		if got := obstest.Sum(fams, "bmmc_backend_op_seconds_count", nil); got == 0 {
			t.Error("bmmc_backend_op_seconds histogram recorded no backend ops")
		}
		if got := obstest.Sum(fams, "bmmc_job_transitions_total", nil); got < 3 {
			t.Errorf("bmmc_job_transitions_total = %v, want >= 3 (queued/running/done)", got)
		}

		// The trace has one pass span per executed pass and one load span
		// per memoryload wave, plus io spans from the file backend.
		tr := fetchTrace(t, srv.URL+"/v1/jobs/"+j.ID()+"/trace")
		if tr.TraceID != j.ID() {
			t.Errorf("trace id = %s, want %s", tr.TraceID, j.ID())
		}
		passes, loads, ios := 0, 0, 0
		var passIOs int
		for _, s := range tr.Spans {
			switch s.Name {
			case obs.SpanPass:
				passes++
				passIOs += s.IOs
				if s.End.Before(s.Start) {
					t.Errorf("pass span %d ends before it starts", s.Pass)
				}
			case obs.SpanLoad:
				loads++
			case obs.SpanIO:
				ios++
				if s.Op == "" || s.Blocks == 0 {
					t.Errorf("io span missing op/blocks: %+v", s)
				}
			}
		}
		if passes != rep.Passes {
			t.Errorf("trace has %d pass spans, want %d", passes, rep.Passes)
		}
		if want := rep.Passes * (testConfig.N / testConfig.M); loads != want {
			t.Errorf("trace has %d load spans, want %d (one per memoryload wave)", loads, want)
		}
		if passIOs != rep.ParallelIOs {
			t.Errorf("pass spans account %d I/Os, want report's %d", passIOs, rep.ParallelIOs)
		}
		if ios == 0 {
			t.Error("trace has no io spans from the instrumented file backend")
		}

		// Released, the done job's file storage waits as a spare, and a
		// second job of the same geometry takes it instead of provisioning.
		if _, err := m.Cancel(j.ID()); err != nil {
			t.Fatal(err)
		}
		j2, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if s := waitTerminal(t, j2); s != StateDone {
			t.Fatalf("second job finished %s: %s", s, j2.Status().Error)
		}
		if _, err := m.Cancel(j2.ID()); err != nil {
			t.Fatal(err)
		}
		fams = scrapeMetrics(t, srv.URL+"/metrics")
		for source, want := range map[string]float64{"provisioned": 1, "reused": 1} {
			got, err := obstest.Value(fams, "bmmc_job_storage_total", map[string]string{"source": source})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("bmmc_job_storage_total{source=%q} = %v, want %v", source, got, want)
			}
		}
	}()
	waitNoLeak(t, base)
}

// scrapeMetrics fetches a Prometheus exposition and strict-parses it.
func scrapeMetrics(t *testing.T, url string) []obs.Family {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	fams, err := obstest.Parse(string(body))
	if err != nil {
		t.Fatalf("exposition failed strict parse: %v", err)
	}
	return fams
}

// fetchTrace fetches and decodes a job trace.
func fetchTrace(t *testing.T, url string) *JobTrace {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	tr := new(JobTrace)
	if err := json.NewDecoder(resp.Body).Decode(tr); err != nil {
		t.Fatal(err)
	}
	return tr
}
