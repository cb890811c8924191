package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// coordObs is the coordinator's own Prometheus registry plus the scrape
// fan-out that re-exposes every worker's exposition under one endpoint.
type coordObs struct {
	reg         *obs.Registry
	scrapeFails *obs.CounterVec // bmmc_coord_scrape_failures_total{worker}
}

// newCoordObs builds the coordinator registry: control-plane gauges
// refreshed at scrape time, runtime gauges, and the scrape-failure
// counter both /metrics and /v1/metrics record into.
func newCoordObs(c *Coordinator) *coordObs {
	r := obs.NewRegistry()
	o := &coordObs{
		reg: r,
		scrapeFails: r.CounterVec("bmmc_coord_scrape_failures_total",
			"Worker metrics scrapes that failed (skipped from aggregates).", "worker"),
	}
	obs.RegisterRuntime(r, "bmmc_coord")
	workers := r.GaugeVec("bmmc_coord_workers", "Registered workers by health state.", "health")
	datasets := r.Gauge("bmmc_coord_datasets", "Placements in the coordinator's table.")
	sjobs := r.GaugeVec("bmmc_coord_striped_jobs", "Coordinator-run striped jobs by state.", "state")
	r.OnScrape(func() {
		counts := map[Health]int{Healthy: 0, Suspect: 0, Draining: 0}
		for _, w := range c.reg.snapshot() {
			counts[w.Health]++
		}
		for h, n := range counts {
			workers.With(string(h)).Set(float64(n))
		}
		states := map[service.State]int{}
		c.mu.Lock()
		datasets.Set(float64(len(c.placements)))
		for _, sj := range c.sjobs {
			sj.mu.Lock()
			states[sj.state]++
			sj.mu.Unlock()
		}
		c.mu.Unlock()
		for s, n := range states {
			sjobs.With(string(s)).Set(float64(n))
		}
	})
	return o
}

// scrapeWorkers fetches every live worker's /metrics exposition, tags each
// family's samples with the worker id, and merges them with the
// coordinator's own families. Failed scrapes are skipped — the merged
// exposition stays parsable — and counted in
// bmmc_coord_scrape_failures_total.
func (c *Coordinator) scrapeWorkers(ctx context.Context) []obs.Family {
	merged := c.obs.reg.Gather()
	for _, w := range c.reg.snapshot() {
		fams, err := c.scrapeOne(ctx, w.Addr)
		if err != nil {
			c.obs.scrapeFails.With(w.ID).Inc()
			c.log.Warn("scraping worker metrics", "worker", w.ID, "err", err)
			continue
		}
		merged = obs.Merge(merged, obs.Relabel(fams, "worker", w.ID))
	}
	return merged
}

// scrapeOne fetches and parses one worker's Prometheus endpoint.
func (c *Coordinator) scrapeOne(ctx context.Context, addr string) ([]obs.Family, error) {
	ctx, cancel := context.WithTimeout(ctx, c.o.CallTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("%s: %s", resp.Status, body)
	}
	return obs.ParseText(resp.Body)
}

// promMetrics serves GET /metrics at the coordinator: its own families
// merged with every worker's, worker series distinguished by the added
// worker label.
func (h *handler) promMetrics(w http.ResponseWriter, r *http.Request) {
	fams := h.c.scrapeWorkers(r.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteFamilies(w, fams)
}

// subJobRef names one worker sub-job a striped job spawned, for trace
// stitching.
type subJobRef struct {
	worker string
	jobID  string
}

// addSpan appends a coordinator-side span to the striped job's trace.
func (sj *stripedJob) addSpan(s obs.Span) {
	if sj.trace != nil {
		sj.trace.Add(s)
	}
}

// addRef records a spawned worker sub-job.
func (sj *stripedJob) addRef(worker, jobID string) {
	sj.mu.Lock()
	sj.refs = append(sj.refs, subJobRef{worker: worker, jobID: jobID})
	sj.mu.Unlock()
}

// stitchedTrace assembles a striped job's trace: the coordinator's own
// stripe/gather/route/scatter spans plus every worker sub-job's spans, each
// stamped with the worker and sub-job id that produced it, merged under
// the striped job's trace id in start-time order. Unreachable workers
// lose their spans, not the trace.
func (c *Coordinator) stitchedTrace(ctx context.Context, sj *stripedJob) *service.JobTrace {
	tr := &service.JobTrace{TraceID: sj.id, JobID: sj.id, Spans: []obs.Span{}}
	if sj.trace != nil {
		spans, dropped := sj.trace.Snapshot()
		tr.Spans, tr.Dropped = spans, dropped
	}
	sj.mu.Lock()
	refs := append([]subJobRef(nil), sj.refs...)
	sj.mu.Unlock()
	for _, ref := range refs {
		wc, err := c.clientFor(ref.worker)
		if err != nil {
			continue
		}
		wt, err := wc.Trace(ctx, ref.jobID)
		if err != nil {
			c.log.Warn("fetching sub-job trace", "worker", ref.worker, "job", ref.jobID, "err", err)
			continue
		}
		for _, s := range wt.Spans {
			s.Worker, s.JobID = ref.worker, ref.jobID
			tr.Spans = append(tr.Spans, s)
		}
		tr.Dropped += wt.Dropped
	}
	sort.SliceStable(tr.Spans, func(i, j int) bool { return tr.Spans[i].Start.Before(tr.Spans[j].Start) })
	return tr
}

// jobTrace serves GET /v1/jobs/{id}/trace: stitched for striped jobs,
// proxied to the owning worker otherwise.
func (h *handler) jobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sj := h.stripedOf(id); sj != nil {
		h.writeJSON(w, http.StatusOK, h.c.stitchedTrace(r.Context(), sj))
		return
	}
	h.proxyJob(w, r, id)
}

// spanSince builds a completed coordinator-side span.
func spanSince(name, worker string, start time.Time) obs.Span {
	return obs.Span{Name: name, Worker: worker, Start: start, End: time.Now()}
}
