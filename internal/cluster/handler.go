package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

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

// Gauges aggregates live worker metrics into the ClusterMetrics of GET
// /v1/metrics. Workers whose fetch fails appear in the array with an
// error and contribute nothing to the sums.
func (c *Coordinator) Gauges(ctx context.Context) any {
	out := &ClusterMetrics{Workers: []WorkerMetrics{}}
	for _, w := range c.reg.snapshot() {
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

// SubmitJob routes POST /v1/jobs: striped-dataset jobs run on the
// coordinator itself, ordinary dataset jobs go to the owning worker, and
// per-job-storage jobs round-robin over live workers. Either way the
// worker's job id is the cluster-wide job id.
func (c *Coordinator) SubmitJob(ctx context.Context, req service.SubmitRequest) (*service.JobStatus, error) {
	if req.Dataset != "" {
		p, err := c.placementOf(req.Dataset)
		if err != nil {
			return nil, err
		}
		if p.gate != nil {
			return c.submitStriped(req, p)
		}
		if err := c.settled(p); err != nil {
			return nil, err
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

// FindJob resolves a job id to a striped job the coordinator runs, or
// else to the base URL of the worker its route names.
func (c *Coordinator) FindJob(id string) (service.LocalJob, string, error) {
	c.mu.Lock()
	sj, worker := c.sjobs[id], c.routes[id]
	c.mu.Unlock()
	switch {
	case sj != nil:
		return sj, "", nil
	case worker == "":
		return nil, "", service.Error(http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
	}
	addr, ok := c.reg.addrOf(worker)
	if !ok {
		return nil, "", service.Error(http.StatusBadGateway,
			fmt.Sprintf("job %s ran on worker %s, which left the cluster", id, worker))
	}
	return nil, addr, nil
}

// ListJobs merges every worker's job list with the coordinator's striped
// jobs, in submission order.
func (c *Coordinator) ListJobs(ctx context.Context) []*service.JobStatus {
	var out []*service.JobStatus
	for _, w := range c.reg.snapshot() {
		sts, err := c.workerClient(w.Addr).Jobs(ctx)
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
	sort.Slice(out, func(i, j int) bool { return out[i].Submitted.Before(out[j].Submitted) })
	return out
}

// NewHandler serves the coordinator: the /v1 front end over c (see
// service.NewFrontEnd), which runs striped jobs and datasets here and
// proxies every other job and dataset to its worker, plus the cluster
// control plane:
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
	mux := service.NewFrontEnd(c, c.log)
	mux.HandleFunc("POST /cluster/v1/join", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if !service.DecodeJSON(w, r, &req) {
			return
		}
		if err := c.Join(req.ID, req.Addr); err != nil {
			service.WriteError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, joinResponse{HeartbeatInterval: c.o.HeartbeatInterval})
	})
	mux.HandleFunc("POST /cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if !service.DecodeJSON(w, r, &req) {
			return
		}
		if !c.reg.heartbeat(req.ID) {
			service.WriteError(w, service.Error(http.StatusNotFound, fmt.Sprintf("unknown worker %q; re-join", req.ID)))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /cluster/v1/leave", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if !service.DecodeJSON(w, r, &req) {
			return
		}
		if err := c.Leave(req.ID); err != nil {
			service.WriteError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /cluster/v1/workers", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, c.Workers())
	})
	return mux
}
