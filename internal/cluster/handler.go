package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/service"
)

// asGatewayErr maps a worker-call failure onto the coordinator's surface:
// a worker's own API error passes through with its status (a 409 from the
// owning worker IS the dataset's state), transport failures become 502.
func asGatewayErr(err error) error {
	if err == nil {
		return nil
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return service.Error(ae.Status, ae.Message)
	}
	return service.Error(http.StatusBadGateway, "worker call failed: "+err.Error())
}

func isAPIStatus(err error, target **client.APIError) bool { return errors.As(err, target) }

// joinRequest is the body of POST /cluster/v1/join and /cluster/v1/leave;
// heartbeat sends only the id.
type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// joinResponse tells the worker the cadence the failure detector expects.
type joinResponse struct {
	HeartbeatInterval time.Duration `json:"heartbeat_interval_ns"`
}

// WorkerMetrics is one worker's slice of the cluster metrics.
type WorkerMetrics struct {
	ID      string           `json:"id"`
	Addr    string           `json:"addr"`
	Health  Health           `json:"health"`
	Metrics *service.Metrics `json:"metrics,omitempty"`
	Error   string           `json:"scrape_error,omitempty"` // metrics fetch failure; worker skipped from sums
}

// ClusterMetrics is GET /v1/metrics at the coordinator: the single-daemon
// gauge set summed over every worker (plus the coordinator's own striped
// jobs), with the per-worker breakdown in Workers. Existing clients decode
// the summed gauges exactly as they would a daemon's.
type ClusterMetrics struct {
	service.Metrics
	Workers []WorkerMetrics `json:"workers"`
}

// ClusterMetrics aggregates live worker metrics. Workers whose fetch fails
// appear in the array with an error and contribute nothing to the sums.
func (c *Coordinator) ClusterMetrics(ctx context.Context) *ClusterMetrics {
	out := &ClusterMetrics{Workers: []WorkerMetrics{}}
	for _, w := range c.Workers() {
		wm := WorkerMetrics{ID: w.ID, Addr: w.Addr, Health: w.Health}
		m, err := c.workerClient(w.Addr).Metrics(ctx)
		if err != nil {
			wm.Error = err.Error()
			c.obs.scrapeFails.With(w.ID).Inc()
		} else {
			wm.Metrics = m
			addMetrics(&out.Metrics, m)
		}
		out.Workers = append(out.Workers, wm)
	}
	c.mu.Lock()
	for _, sj := range c.sjobs {
		s := sj.State()
		out.CountJob(s)
		if s == service.StateDone {
			out.DatasetJobsRun++
		}
	}
	c.mu.Unlock()
	if n := out.PlanCacheHits + out.PlanCacheMisses; n > 0 {
		out.PlanCacheRate = float64(out.PlanCacheHits) / float64(n)
	}
	return out
}

// addMetrics accumulates one worker's gauges into the cluster sum.
func addMetrics(sum *service.Metrics, m *service.Metrics) {
	sum.JobsSubmitted += m.JobsSubmitted
	sum.JobsQueued += m.JobsQueued
	sum.JobsPlanning += m.JobsPlanning
	sum.JobsRunning += m.JobsRunning
	sum.JobsDone += m.JobsDone
	sum.JobsFailed += m.JobsFailed
	sum.JobsCanceled += m.JobsCanceled
	sum.QueueDepth += m.QueueDepth
	sum.QueueCapacity += m.QueueCapacity
	sum.Workers += m.Workers
	sum.DatasetsCreated += m.DatasetsCreated
	sum.DatasetsActive += m.DatasetsActive
	sum.DatasetJobsRun += m.DatasetJobsRun
	sum.Passes += m.Passes
	sum.ParallelIOs += m.ParallelIOs
	sum.ParallelReads += m.ParallelReads
	sum.ParallelWrites += m.ParallelWrites
	sum.PlanCacheHits += m.PlanCacheHits
	sum.PlanCacheMisses += m.PlanCacheMisses
	sum.PlanCacheSize += m.PlanCacheSize
}

// pickWorker chooses a worker for per-job (non-dataset) storage:
// round-robin over the healthy set, falling back to suspects when nothing
// is healthy — a suspect is merely late, not gone.
func (c *Coordinator) pickWorker() (string, error) {
	ws := c.reg.snapshot()
	var pool []string
	for _, w := range ws {
		if w.Health == Healthy {
			pool = append(pool, w.ID)
		}
	}
	if len(pool) == 0 {
		for _, w := range ws {
			if w.Health == Suspect {
				pool = append(pool, w.ID)
			}
		}
	}
	if len(pool) == 0 {
		return "", service.Error(http.StatusServiceUnavailable, "no live workers in the cluster")
	}
	c.mu.Lock()
	c.seq++
	pick := pool[c.seq%len(pool)]
	c.mu.Unlock()
	return pick, nil
}

// submitJob routes POST /v1/jobs: striped-dataset jobs run on the
// coordinator itself, ordinary dataset jobs go to the owning worker, and
// per-job-storage jobs round-robin over live workers. Either way the
// worker's job id is the cluster-wide job id.
func (c *Coordinator) submitJob(ctx context.Context, req service.SubmitRequest) (*service.JobStatus, error) {
	if req.Dataset != "" {
		p, err := c.placementOf(req.Dataset)
		if err != nil {
			return nil, err
		}
		if p.gate != nil {
			return c.submitStriped(req, p)
		}
		return c.forwardSubmit(ctx, req, c.stripesOf(p)[0].worker)
	}
	w, err := c.pickWorker()
	if err != nil {
		return nil, err
	}
	return c.forwardSubmit(ctx, req, w)
}

// forwardSubmit sends a submit to one worker and records the job route.
func (c *Coordinator) forwardSubmit(ctx context.Context, req service.SubmitRequest, worker string) (*service.JobStatus, error) {
	wc, err := c.clientFor(worker)
	if err != nil {
		return nil, err
	}
	js, err := wc.Submit(ctx, req)
	if err != nil {
		return nil, asGatewayErr(err)
	}
	c.mu.Lock()
	if _, dup := c.routes[js.ID]; dup {
		c.log.Warn("job id collision across workers; route overwritten — give workers distinct seeds", "job", js.ID)
	}
	c.routes[js.ID] = worker
	c.mu.Unlock()
	return js, nil
}

// routeOf resolves a job id to the worker running it.
func (c *Coordinator) routeOf(id string) (string, error) {
	c.mu.Lock()
	worker, ok := c.routes[id]
	c.mu.Unlock()
	if !ok {
		return "", service.Error(http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
	}
	return worker, nil
}

// jobStatuses merges every worker's job list with the coordinator's
// striped jobs, in submission order.
func (c *Coordinator) jobStatuses(ctx context.Context) []*service.JobStatus {
	var out []*service.JobStatus
	for _, w := range c.Workers() {
		wc, err := c.clientFor(w.ID)
		if err != nil {
			continue
		}
		sts, err := wc.Jobs(ctx)
		if err != nil {
			c.log.Warn("listing jobs on worker", "worker", w.ID, "err", err)
			continue
		}
		out = append(out, sts...)
	}
	c.mu.Lock()
	for _, sj := range c.sjobs {
		out = append(out, sj.Status())
	}
	c.mu.Unlock()
	sortStatusesBySubmitted(out)
	return out
}

// NewHandler wires the coordinator's HTTP surface: the entire single-daemon
// /v1 API (proxied, striped datasets handled by the coordinator itself) plus
// the cluster control plane:
//
//	POST /cluster/v1/join      worker registration {id, addr}
//	POST /cluster/v1/heartbeat liveness beat {id}; 404 tells the worker to re-join
//	POST /cluster/v1/leave     graceful drain: stripes hand off before the reply
//	GET  /cluster/v1/workers   registry snapshot with health and placement counts
//
// GET /v1/metrics answers the ClusterMetrics superset of the daemon schema,
// GET /metrics the Prometheus exposition (coordinator families merged with
// every worker's, worker series tagged with a worker label), and
// GET /v1/jobs/{id}/trace a striped job's stitched cross-worker trace.
func NewHandler(c *Coordinator) http.Handler {
	h := &handler{c: c}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/join", h.join)
	mux.HandleFunc("POST /cluster/v1/heartbeat", h.heartbeat)
	mux.HandleFunc("POST /cluster/v1/leave", h.leave)
	mux.HandleFunc("GET /cluster/v1/workers", h.workers)

	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", h.jobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.jobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", h.jobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.jobCancel)
	mux.HandleFunc("PUT /v1/jobs/{id}/input", h.jobProxy)
	mux.HandleFunc("GET /v1/jobs/{id}/output", h.jobProxy)

	mux.HandleFunc("POST /v1/datasets", h.createDataset)
	mux.HandleFunc("GET /v1/datasets", h.listDatasets)
	mux.HandleFunc("GET /v1/datasets/{id}", h.datasetStatus)
	mux.HandleFunc("DELETE /v1/datasets/{id}", h.deleteDataset)
	mux.HandleFunc("PUT /v1/datasets/{id}/input", h.datasetInput)
	mux.HandleFunc("GET /v1/datasets/{id}/output", h.datasetOutput)

	mux.HandleFunc("GET /v1/metrics", h.metrics)
	mux.HandleFunc("GET /metrics", h.promMetrics)
	return mux
}

type handler struct {
	c *Coordinator
}

// --- cluster control plane ---

func (h *handler) join(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !service.DecodeJSON(w, r, &req) {
		return
	}
	if err := h.c.Join(req.ID, req.Addr); err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, joinResponse{HeartbeatInterval: h.c.o.HeartbeatInterval})
}

func (h *handler) heartbeat(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !service.DecodeJSON(w, r, &req) {
		return
	}
	if !h.c.reg.heartbeat(req.ID) {
		service.WriteError(w, service.Error(http.StatusNotFound, fmt.Sprintf("unknown worker %q; re-join", req.ID)))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *handler) leave(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !service.DecodeJSON(w, r, &req) {
		return
	}
	if err := h.c.Leave(req.ID); err != nil {
		service.WriteError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *handler) workers(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, h.c.Workers())
}

// --- job surface ---

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var req service.SubmitRequest
	if !service.DecodeJSON(w, r, &req) {
		return
	}
	st, err := h.c.submitJob(r.Context(), req)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusCreated, st)
}

func (h *handler) listJobs(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, h.c.jobStatuses(r.Context()))
}

// stripedOf returns the striped job for an id, if the coordinator owns it.
func (h *handler) stripedOf(id string) *stripedJob {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.sjobs[id]
}

func (h *handler) jobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sj := h.stripedOf(id); sj != nil {
		service.WriteJSON(w, http.StatusOK, sj.Status())
		return
	}
	h.proxyJob(w, r, id)
}

func (h *handler) jobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sj := h.stripedOf(id); sj != nil {
		// Like bmmcd's cancel of a running job, this only requests it:
		// runStriped records the terminal state once the run has stopped.
		sj.Cancel()
		service.WriteJSON(w, http.StatusOK, sj.Status())
		return
	}
	h.proxyJob(w, r, id)
}

func (h *handler) jobProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sj := h.stripedOf(id); sj != nil {
		service.WriteError(w, service.Error(http.StatusConflict,
			"striped jobs run on their dataset; use the dataset's input/output endpoints"))
		return
	}
	h.proxyJob(w, r, id)
}

func (h *handler) jobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sj := h.stripedOf(id); sj != nil {
		service.ServeEvents(w, r, sj.JobRecord)
		return
	}
	h.proxyJob(w, r, id)
}

// proxyJob forwards a job request to the worker its route names.
func (h *handler) proxyJob(w http.ResponseWriter, r *http.Request, id string) {
	worker, err := h.c.routeOf(id)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	addr, ok := h.c.reg.addrOf(worker)
	if !ok {
		service.WriteError(w, service.Error(http.StatusBadGateway,
			fmt.Sprintf("job %s ran on worker %s, which left the cluster", id, worker)))
		return
	}
	h.proxyTo(w, r, addr)
}

// proxyTo replays the request against a worker's base URL and streams the
// response back, flushing each write so SSE event streams pass through
// live. A worker that cannot be reached answers the coordinator's JSON
// 502.
func (h *handler) proxyTo(w http.ResponseWriter, r *http.Request, addr string) {
	target, err := url.Parse(addr)
	if err != nil {
		service.WriteError(w, service.Error(http.StatusBadGateway, "bad worker address: "+err.Error()))
		return
	}
	rp := &httputil.ReverseProxy{
		Rewrite:       func(pr *httputil.ProxyRequest) { pr.SetURL(target) },
		FlushInterval: -1,
		ErrorLog:      slog.NewLogLogger(h.c.log.Handler(), slog.LevelWarn),
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
			service.WriteError(w, service.Error(http.StatusBadGateway, "worker call failed: "+err.Error()))
		},
	}
	rp.ServeHTTP(w, r)
}

// --- dataset surface ---

func (h *handler) createDataset(w http.ResponseWriter, r *http.Request) {
	var req service.CreateDatasetRequest
	if !service.DecodeJSON(w, r, &req) {
		return
	}
	st, err := h.c.createDataset(r.Context(), req)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusCreated, st)
}

func (h *handler) listDatasets(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, h.c.datasetStatuses(r.Context()))
}

func (h *handler) datasetStatus(w http.ResponseWriter, r *http.Request) {
	st, err := h.c.datasetStatus(r.Context(), r.PathValue("id"))
	if err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, st)
}

func (h *handler) deleteDataset(w http.ResponseWriter, r *http.Request) {
	st, err := h.c.deleteDataset(r.Context(), r.PathValue("id"))
	if err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, st)
}

// datasetInput streams an upload to the owning worker, or, once the
// striped dataset's gate admits it, splits it into contiguous per-stripe
// ranges. The stream ends before the 204, so a job submitted on the 204
// binds.
func (h *handler) datasetInput(w http.ResponseWriter, r *http.Request) {
	p, err := h.c.placementOf(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, err)
		return
	}
	if p.gate == nil {
		h.proxyToWorker(w, r, h.c.stripesOf(p)[0].worker)
		return
	}
	if want := int64(p.cfg.N) * bmmc.RecordBytes; r.ContentLength >= 0 && r.ContentLength != want {
		service.WriteError(w, service.Error(http.StatusBadRequest,
			fmt.Sprintf("input must be exactly N*%d = %d bytes, got Content-Length %d", bmmc.RecordBytes, want, r.ContentLength)))
		return
	}
	if err = p.gate.StartStream(); err == nil {
		per := int64(p.scfg.N) * bmmc.RecordBytes
		for _, s := range h.c.stripesOf(p) {
			var wc *client.Client
			if wc, err = h.c.clientFor(s.worker); err == nil {
				err = asGatewayErr(wc.UploadDataset(r.Context(), s.dsID, io.LimitReader(r.Body, per)))
			}
			if err != nil {
				break
			}
		}
		p.gate.EndStream(err == nil)
	}
	if err != nil {
		service.WriteError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// datasetOutput streams a download from the owning worker, or, once the
// striped dataset's gate admits it and before any header is written,
// concatenates the stripes in logical order. Just before its last byte
// the download stops refusing jobs (see service.Gate.Tail).
func (h *handler) datasetOutput(w http.ResponseWriter, r *http.Request) {
	p, err := h.c.placementOf(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, err)
		return
	}
	if p.gate == nil {
		h.proxyToWorker(w, r, h.c.stripesOf(p)[0].worker)
		return
	}
	if err := p.gate.StartStream(); err != nil {
		service.WriteError(w, err)
		return
	}
	tw := p.gate.Tail(w)
	defer tw.End()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(int64(p.cfg.N)*bmmc.RecordBytes))
	for _, s := range h.c.stripesOf(p) {
		wc, err := h.c.clientFor(s.worker)
		if err == nil {
			err = wc.DownloadDataset(r.Context(), s.dsID, tw)
		}
		if err != nil {
			// Headers are committed; cut the stream short.
			h.c.log.Warn("striped output aborted", "dataset", p.id, "stripe", s.dsID, "err", err)
			return
		}
	}
}

func (h *handler) proxyToWorker(w http.ResponseWriter, r *http.Request, workerID string) {
	addr, ok := h.c.reg.addrOf(workerID)
	if !ok {
		service.WriteError(w, service.Error(http.StatusBadGateway,
			fmt.Sprintf("worker %s is no longer part of the cluster", workerID)))
		return
	}
	h.proxyTo(w, r, addr)
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, h.c.ClusterMetrics(r.Context()))
}
