package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// TestClusterStitchedTrace pins the cross-worker trace: a striped job run
// through the coordinator yields ONE trace under the striped job's id,
// containing the coordinator's stripe spans plus every worker sub-job's
// pass/load/io spans stamped with the worker that produced them — for
// both the decomposed path (Gray code) and the exchange path (bit
// reversal, gather/scatter spans).
func TestClusterStitchedTrace(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		tc := startTestCluster(t, 3, nil)
		c := tc.client()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()

		const stripes = 4
		ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg, Stripes: stripes})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(makeInput(testCfg.N))); err != nil {
			t.Fatal(err)
		}

		// Decomposed path: per-stripe sub-jobs on the workers' disks.
		j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds.ID, bmmc.GrayCode(testCfg.LgN())))
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Watch(ctx, j.ID, nil)
		if err != nil || final.State != client.StateDone {
			t.Fatalf("striped job: %v / %+v", err, final)
		}
		tr, err := c.Trace(ctx, j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if tr.TraceID != j.ID {
			t.Fatalf("trace id = %s, want striped job id %s", tr.TraceID, j.ID)
		}
		var stripeSpans, passSpans, loadSpans, passIOs int
		for _, s := range tr.Spans {
			switch s.Name {
			case obs.SpanStripe:
				stripeSpans++
				if s.Worker == "" || s.JobID == "" {
					t.Errorf("stripe span missing worker/sub-job id: %+v", s)
				}
			case obs.SpanPass:
				passSpans++
				passIOs += s.IOs
				if s.Worker == "" || s.JobID == "" {
					t.Errorf("stitched pass span not stamped with its worker: %+v", s)
				}
			case obs.SpanLoad:
				loadSpans++
			}
		}
		if stripeSpans != stripes {
			t.Errorf("trace has %d stripe spans, want %d", stripeSpans, stripes)
		}
		if passSpans != final.Report.Passes {
			t.Errorf("trace has %d pass spans, want the report's %d", passSpans, final.Report.Passes)
		}
		if passIOs != final.Report.ParallelIOs {
			t.Errorf("stitched pass spans account %d I/Os, want report's %d", passIOs, final.Report.ParallelIOs)
		}
		if loadSpans == 0 {
			t.Error("trace has no memoryload spans from the workers")
		}
		for i := 1; i < len(tr.Spans); i++ {
			if tr.Spans[i].Start.Before(tr.Spans[i-1].Start) {
				t.Fatalf("trace spans are not in start-time order at %d", i)
			}
		}

		// Exchange path: the coordinator relays records itself and its
		// gather/scatter spans ARE the trace.
		j2, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds.ID, bmmc.BitReversal(testCfg.LgN())))
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.Watch(ctx, j2.ID, nil); err != nil || final.State != client.StateDone {
			t.Fatalf("exchange job: %v / %+v", err, final)
		}
		tr2, err := c.Trace(ctx, j2.ID)
		if err != nil {
			t.Fatal(err)
		}
		var gathers, routes, scatters []obs.Span
		for _, s := range tr2.Spans {
			switch s.Name {
			case obs.SpanGather:
				gathers = append(gathers, s)
			case obs.SpanRoute:
				routes = append(routes, s)
			case obs.SpanScatter:
				scatters = append(scatters, s)
			}
		}
		if len(gathers) != stripes || len(scatters) != stripes {
			t.Errorf("exchange trace has %d gather / %d scatter spans, want %d each", len(gathers), len(scatters), stripes)
		}
		if len(routes) != 1 {
			t.Fatalf("exchange trace has %d route spans, want 1", len(routes))
		}
		// Gather, route and scatter are three phases: the route starts after
		// the last stripe arrived and ends before the first leaves.
		for _, g := range gathers {
			if routes[0].Start.Before(g.End) {
				t.Errorf("route span starts at %v, before gather span ends at %v", routes[0].Start, g.End)
			}
		}
		for _, s := range scatters {
			if routes[0].End.After(s.Start) {
				t.Errorf("route span ends at %v, after scatter span starts at %v", routes[0].End, s.Start)
			}
		}

		// The coordinator's Prometheus endpoint merges its own families
		// with every worker's, worker series tagged by id.
		fams := scrapeProm(t, tc.coordURL+"/metrics")
		if got, err := obstest.Value(fams, "bmmc_coord_workers", map[string]string{"health": "healthy"}); err != nil || got != 3 {
			t.Errorf("bmmc_coord_workers{healthy} = %v (%v), want 3", got, err)
		}
		if got := obstest.Sum(fams, "bmmc_pass_ios", nil); got == 0 {
			t.Error("merged exposition carries no worker bmmc_pass_ios series")
		}
		for _, w := range []string{"w1", "w2", "w3"} {
			if _, err := obstest.Value(fams, "bmmc_goroutines", map[string]string{"worker": w}); err != nil {
				t.Errorf("worker %s series missing from merged exposition: %v", w, err)
			}
		}
		tc.teardown()
	}()
	waitNoLeak(t, base)
}

// TestClusterScrapeFailureSkipped pins the degraded-scrape contract: a
// worker whose HTTP surface is gone (heartbeats still flowing) is skipped
// from both aggregation surfaces rather than poisoning them — /v1/metrics
// records a per-worker scrape_error, /metrics stays parsable, and the
// failure counter ticks.
func TestClusterScrapeFailureSkipped(t *testing.T) {
	tc := startTestCluster(t, 2, nil)

	// Cut w2's data/metrics surface; its member keeps heartbeating, so the
	// registry still lists it healthy.
	tc.workers[1].srv.Close()

	resp, err := http.Get(tc.coordURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var cm cluster.ClusterMetrics
	err = json.NewDecoder(resp.Body).Decode(&cm)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Workers) != 2 {
		t.Fatalf("workers array has %d entries, want 2", len(cm.Workers))
	}
	for _, wm := range cm.Workers {
		switch wm.ID {
		case "w1":
			if wm.Error != "" || wm.Metrics == nil {
				t.Errorf("live worker w1 should have scraped clean: %+v", wm)
			}
		case "w2":
			if wm.Error == "" || wm.Metrics != nil {
				t.Errorf("dead worker w2 should carry scrape_error and no metrics: %+v", wm)
			}
		}
	}

	fams := scrapeProm(t, tc.coordURL+"/metrics")
	if _, err := obstest.Value(fams, "bmmc_goroutines", map[string]string{"worker": "w1"}); err != nil {
		t.Errorf("live worker w1 missing from merged exposition: %v", err)
	}
	if n := obstest.Sum(fams, "bmmc_goroutines", map[string]string{"worker": "w2"}); n != 0 {
		t.Errorf("dead worker w2 leaked %v series into the exposition", n)
	}
	if got := obstest.Sum(fams, "bmmc_coord_scrape_failures_total", map[string]string{"worker": "w2"}); got < 1 {
		t.Errorf("bmmc_coord_scrape_failures_total{worker=w2} = %v, want >= 1", got)
	}
}

// scrapeProm fetches a Prometheus endpoint and strict-parses it.
func scrapeProm(t *testing.T, url string) []obs.Family {
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
