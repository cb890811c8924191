package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"

	bmmc "repro"
	"repro/internal/obs"
)

// httpError is an error that knows its HTTP status. The manager, jobs and
// the cluster coordinator return these (see Error); anything else renders
// as 500.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// Status returns the HTTP status the error maps to.
func (e *httpError) Status() int { return e.status }

// Error returns an error that WriteError renders with the given status.
func Error(status int, msg string) error { return &httpError{status, msg} }

// WriteError renders err as a JSON {"error": "..."} body, under the status
// an Error carries or 500 for any other error.
func WriteError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.Status()
	}
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// WriteJSON renders v as a JSON body under the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// DecodeJSON decodes a JSON request body into v, reading at most
// maxSubmitBody bytes. On failure it answers 400 and reports false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(v); err != nil {
		WriteError(w, Error(http.StatusBadRequest, "decoding request: "+err.Error()))
		return false
	}
	return true
}

// reply renders v under status, or err when it is set.
func reply(w http.ResponseWriter, status int, v any, err error) {
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, status, v)
}

// statusOf returns x's wire status, or err when it is set.
func statusOf[T interface{ Status() *S }, S any](x T, err error) (*S, error) {
	if err != nil {
		return nil, err
	}
	return x.Status(), nil
}

// statuses returns the wire status of each of xs.
func statuses[T interface{ Status() *S }, S any](xs []T) []*S {
	out := make([]*S, len(xs))
	for i, x := range xs {
		out[i] = x.Status()
	}
	return out
}

func errUnknownJob(id string) error {
	return &httpError{http.StatusNotFound, fmt.Sprintf("unknown job %q", id)}
}

func errUnknownDataset(id string) error {
	return &httpError{http.StatusNotFound, fmt.Sprintf("unknown dataset %q", id)}
}

// maxSubmitBody bounds every JSON request body. The largest, a POST
// /v1/jobs body, marshals a permutation on 64-bit addresses in under 5 KB,
// so 1 MiB is generous.
const maxSubmitBody = 1 << 20

// Tier is what the /v1 front end serves: bmmcd's Manager, or the cluster
// coordinator. A Tier runs some jobs and holds some datasets itself; it
// may name a worker that serves any other id, and the front end proxies
// the request there unchanged.
type Tier interface {
	// FindJob resolves a job id to a job this process runs, or else to
	// the base URL of the worker that runs it. An unknown id is a 404.
	FindJob(id string) (LocalJob, string, error)
	// FindDataset resolves a dataset id to a dataset this process holds,
	// or else to the base URL of the worker that holds it.
	FindDataset(id string) (LocalDataset, string, error)
	// SubmitJob admits a job and returns its first status.
	SubmitJob(ctx context.Context, req SubmitRequest) (*JobStatus, error)
	// ListJobs returns every job's status in submission order.
	ListJobs(ctx context.Context) []*JobStatus
	// NewDataset creates a dataset and returns its status.
	NewDataset(ctx context.Context, req CreateDatasetRequest) (*DatasetStatus, error)
	// DropDataset deletes a dataset and returns its last status.
	DropDataset(ctx context.Context, id string) (*DatasetStatus, error)
	// ListDatasets returns every dataset's status in creation order.
	ListDatasets(ctx context.Context) []*DatasetStatus
	// Gauges returns the JSON body of GET /v1/metrics.
	Gauges(ctx context.Context) any
	// Families returns the Prometheus families of GET /metrics.
	Families(ctx context.Context) []obs.Family
}

// LocalJob is a job this process runs: a bmmcd Job, or the cluster
// coordinator's striped job. Both embed the JobRecord whose status and
// events the front end serves.
type LocalJob interface {
	record() *JobRecord
	// Stop serves DELETE /v1/jobs/{id}: it cancels the job, or releases
	// it once it is terminal.
	Stop()
	// FullTrace returns the job's trace, with the spans of any sub-jobs
	// it ran elsewhere stitched in.
	FullTrace(ctx context.Context) *JobTrace
	// Upload replaces the job's own records with the N records r carries.
	// Output admits a download of them and returns the dataset to dump. A
	// job on a shared dataset refuses both: its records are the dataset's.
	Upload(ctx context.Context, r io.Reader) error
	Output() (LocalDataset, error)
}

// LocalDataset is a dataset this process holds: a bmmcd dataset entry, or
// the coordinator's striped placement. Both embed the Gate that admits
// the dataset's jobs and streams; Load and Dump move its N records in the
// wire format once the gate has admitted a stream.
type LocalDataset interface {
	gate() *Gate
	Load(ctx context.Context, r io.Reader) error
	Dump(ctx context.Context, w io.Writer) error
}

// NewHandler serves bmmcd's HTTP surface: the /v1 front end over m.
func NewHandler(m *Manager, logger *slog.Logger) http.Handler {
	return NewFrontEnd(m, logger)
}

// NewFrontEnd wires the /v1 surface over t, which bmmcd and the cluster
// coordinator serve alike:
//
//	POST   /v1/jobs             submit a job (SubmitRequest -> JobStatus, 201)
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/events SSE stream of state and progress events
//	GET    /v1/jobs/{id}/trace  the job's span trace (JobTrace JSON)
//	DELETE /v1/jobs/{id}        cancel (or release a terminal job)
//	PUT    /v1/jobs/{id}/input  upload N records in the 16-byte wire format
//	GET    /v1/jobs/{id}/output download the permuted records
//	POST   /v1/datasets         create a dataset (CreateDatasetRequest -> DatasetStatus, 201)
//	GET    /v1/datasets         list datasets in creation order
//	GET    /v1/datasets/{id}    dataset status
//	DELETE /v1/datasets/{id}    delete (409 while jobs are bound; waits for streams)
//	PUT    /v1/datasets/{id}/input  upload N records once, for any number of jobs
//	GET    /v1/datasets/{id}/output download the dataset's current records
//	POST   /v1/datasets/{id}/handoff replicate the dataset to another daemon (HandoffRequest; bmmcd only)
//	GET    /v1/metrics          gauges (JSON): bmmcd's Metrics, or the coordinator's ClusterMetrics
//	GET    /metrics             Prometheus text exposition
//
// Errors are JSON objects {"error": "..."} with the appropriate status:
// 400 for invalid requests, 404 for unknown jobs or datasets, 409 for
// wrong-state data plane calls (including dataset deletes while jobs are
// bound), 410 for deleted datasets, 429 when the admission queue is full,
// 502 when a worker the coordinator proxies to cannot be reached, and 503
// while a dataset is being handed off.
//
// Every id t resolves locally is served here: bmmcd's jobs and datasets,
// and the coordinator's striped jobs and striped datasets. Any other id
// the coordinator knows is proxied to the worker that holds it, answer
// and SSE stream alike.
func NewFrontEnd(t Tier, logger *slog.Logger) *http.ServeMux {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &server{t: t, log: logger}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, t.ListJobs(r.Context()))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.trace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("PUT /v1/jobs/{id}/input", s.jobInput)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.jobOutput)
	mux.HandleFunc("POST /v1/datasets", s.createDataset)
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, t.ListDatasets(r.Context()))
	})
	mux.HandleFunc("GET /v1/datasets/{id}", s.datasetStatus)
	mux.HandleFunc("DELETE /v1/datasets/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := t.DropDataset(r.Context(), r.PathValue("id"))
		reply(w, http.StatusOK, st, err)
	})
	mux.HandleFunc("PUT /v1/datasets/{id}/input", s.datasetInput)
	mux.HandleFunc("GET /v1/datasets/{id}/output", s.datasetOutput)
	mux.HandleFunc("POST /v1/datasets/{id}/handoff", s.datasetHandoff)
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, t.Gauges(r.Context()))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteFamilies(w, t.Families(r.Context()))
	})
	return mux
}

type server struct {
	t   Tier
	log *slog.Logger
}

// job resolves the request's job id to a job this process runs. It
// answers the request itself, and returns nil, when the id is unknown or
// another process runs the job: the request is then proxied there.
func (s *server) job(w http.ResponseWriter, r *http.Request) LocalJob {
	j, base, err := s.t.FindJob(r.PathValue("id"))
	switch {
	case err != nil:
		WriteError(w, err)
	case j == nil:
		s.proxy(w, r, base)
	}
	return j
}

// dataset resolves the request's dataset id as job resolves a job id.
func (s *server) dataset(w http.ResponseWriter, r *http.Request) LocalDataset {
	d, base, err := s.t.FindDataset(r.PathValue("id"))
	switch {
	case err != nil:
		WriteError(w, err)
	case d == nil:
		s.proxy(w, r, base)
	}
	return d
}

// proxy replays the request against a worker's base URL and streams the
// answer back, flushing each write so SSE event streams pass through
// live. A worker that cannot be reached answers a JSON 502.
func (s *server) proxy(w http.ResponseWriter, r *http.Request, base string) {
	target, err := url.Parse(base)
	if err != nil {
		WriteError(w, Error(http.StatusBadGateway, "bad worker address: "+err.Error()))
		return
	}
	rp := &httputil.ReverseProxy{
		Rewrite:       func(pr *httputil.ProxyRequest) { pr.SetURL(target) },
		FlushInterval: -1,
		ErrorLog:      slog.NewLogLogger(s.log.Handler(), slog.LevelWarn),
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
			WriteError(w, Error(http.StatusBadGateway, "worker call failed: "+err.Error()))
		},
	}
	rp.ServeHTTP(w, r)
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if DecodeJSON(w, r, &req) {
		st, err := s.t.SubmitJob(r.Context(), req)
		reply(w, http.StatusCreated, st, err)
	}
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		WriteJSON(w, http.StatusOK, j.record().Status())
	}
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		j.Stop()
		WriteJSON(w, http.StatusOK, j.record().Status())
	}
}

// trace serves a job's span ring as JSON: GET /v1/jobs/{id}/trace.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		WriteJSON(w, http.StatusOK, j.FullTrace(r.Context()))
	}
}

func (s *server) jobInput(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		s.input(w, r, j.record().gate.cfg.N, j.Upload)
	}
}

func (s *server) jobOutput(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		d, err := j.Output()
		s.output(w, r, d, err)
	}
}

func (s *server) createDataset(w http.ResponseWriter, r *http.Request) {
	var req CreateDatasetRequest
	if DecodeJSON(w, r, &req) {
		st, err := s.t.NewDataset(r.Context(), req)
		reply(w, http.StatusCreated, st, err)
	}
}

func (s *server) datasetStatus(w http.ResponseWriter, r *http.Request) {
	if d := s.dataset(w, r); d != nil {
		WriteJSON(w, http.StatusOK, d.gate().Status())
	}
}

// datasetInput serves PUT /v1/datasets/{id}/input. The stream ends before
// the 204, so a job submitted on the 204 binds.
func (s *server) datasetInput(w http.ResponseWriter, r *http.Request) {
	if d := s.dataset(w, r); d != nil {
		s.input(w, r, d.gate().cfg.N, func(ctx context.Context, body io.Reader) error {
			return upload(ctx, d, body)
		})
	}
}

func (s *server) datasetOutput(w http.ResponseWriter, r *http.Request) {
	if d := s.dataset(w, r); d != nil {
		s.output(w, r, d, d.gate().StartStream())
	}
}

// datasetHandoff serves POST /v1/datasets/{id}/handoff, which only a
// daemon answers: the coordinator moves datasets itself.
func (s *server) datasetHandoff(w http.ResponseWriter, r *http.Request) {
	m, ok := s.t.(*Manager)
	if !ok {
		WriteError(w, Error(http.StatusNotFound, "handoff is served by bmmcd workers only: the coordinator moves datasets itself"))
		return
	}
	var req HandoffRequest
	if DecodeJSON(w, r, &req) {
		st, err := statusOf(m.HandoffDataset(r.Context(), r.PathValue("id"), req))
		reply(w, http.StatusOK, st, err)
	}
}

// upload streams an upload into d once its gate admits the stream, and
// marks d loaded when every record landed.
func upload(ctx context.Context, d LocalDataset, r io.Reader) error {
	g := d.gate()
	if err := g.StartStream(); err != nil {
		return err
	}
	err := d.Load(ctx, r)
	g.EndStream(err == nil)
	return err
}

// input serves a job's or a dataset's PUT .../input: exactly n records in
// the wire format, handed to upload. A body that declares another length
// is refused before upload runs; a chunked one that runs past n records
// fails inside it (see exactBody), so neither commits a record.
func (s *server) input(w http.ResponseWriter, r *http.Request, n int, upload func(context.Context, io.Reader) error) {
	want := int64(n) * bmmc.RecordBytes
	if r.ContentLength >= 0 && r.ContentLength != want {
		WriteError(w, &httpError{http.StatusBadRequest,
			fmt.Sprintf("input must be exactly N*%d = %d bytes, got Content-Length %d", bmmc.RecordBytes, want, r.ContentLength)})
		return
	}
	if err := upload(r.Context(), &exactBody{io.LimitedReader{R: r.Body, N: want}}); err != nil {
		WriteError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// exactBody passes an upload body through up to its expected length. The
// read that delivers the last expected byte first checks that the body
// ends there; if it does not, that read returns an error and no bytes, so
// the load reading it fails before its last chunk commits.
type exactBody struct{ io.LimitedReader }

func (b *exactBody) Read(p []byte) (int, error) {
	n, err := b.LimitedReader.Read(p)
	if b.N > 0 || n == 0 {
		return n, err
	}
	var next [1]byte
	switch m, err := io.ReadFull(b.R, next[:]); {
	case m > 0:
		return 0, errors.New("input runs past N records")
	case err != io.EOF:
		return 0, err
	}
	return n, nil
}

// output serves a job's or a dataset's GET .../output: it streams d's
// records once the download is admitted, or answers err, the admission's
// refusal. Admitting before committing headers means that once a stream
// is admitted the dataset cannot gain a job or be deleted under us, so
// wrong-state requests get a clean JSON error and admitted requests get
// the full byte stream — never a 200 with a truncated body. Just before
// the body's last byte is written, the stream stops refusing jobs on d
// (see Gate.Tail), so the client's next job is not refused.
func (s *server) output(w http.ResponseWriter, r *http.Request, d LocalDataset, err error) {
	if err != nil {
		WriteError(w, err)
		return
	}
	g := d.gate()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(int64(g.cfg.N)*bmmc.RecordBytes))
	if err := dump(r.Context(), d, w); err != nil {
		// Headers are committed; log and cut the stream short.
		s.log.Warn("output stream aborted", "entry", g.id, "err", err)
	}
}

func (s *server) events(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		serveEvents(w, r, j.record())
	}
}

// serveEvents streams a job's lifecycle as server-sent events: one "data:"
// line per Event, starting with a snapshot of the current state, ending
// after the terminal state event. Slow consumers may miss progress events
// but never state transitions.
func serveEvents(w http.ResponseWriter, r *http.Request, src *JobRecord) {
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}

	ch, cancelSub := src.Subscribe()
	defer cancelSub()

	// Snapshot first: a subscriber always learns the current state even if
	// no further transitions happen. The snapshot may duplicate (or, very
	// rarely, run ahead of) a buffered transition; consumers treat events
	// as idempotent status updates.
	st := src.Status()
	if !send(Event{Type: EventState, JobID: st.ID, State: st.State, Error: st.Error}) {
		return
	}
	if st.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			if !send(ev) {
				return
			}
			if ev.Type == EventState && ev.State.Terminal() {
				return
			}
		}
	}
}

// FindJob resolves a job id: a daemon runs every job it knows.
func (m *Manager) FindJob(id string) (LocalJob, string, error) {
	if j, ok := m.Job(id); ok {
		return j, "", nil
	}
	return nil, "", errUnknownJob(id)
}

// FindDataset resolves a dataset id: a daemon holds every dataset it
// knows, deleted ones included.
func (m *Manager) FindDataset(id string) (LocalDataset, string, error) {
	if d, ok := m.Dataset(id); ok {
		return d, "", nil
	}
	return nil, "", errUnknownDataset(id)
}

// SubmitJob serves POST /v1/jobs through Submit.
func (m *Manager) SubmitJob(_ context.Context, req SubmitRequest) (*JobStatus, error) { //lint:allow ctxio -- a daemon admits in process
	return statusOf(m.Submit(req))
}

// ListJobs returns the status of every job in submission order.
func (m *Manager) ListJobs(context.Context) []*JobStatus { return statuses(m.Jobs()) }

// NewDataset serves POST /v1/datasets through CreateDataset.
func (m *Manager) NewDataset(_ context.Context, req CreateDatasetRequest) (*DatasetStatus, error) { //lint:allow ctxio -- a daemon provisions in process
	return statusOf(m.CreateDataset(req))
}

// DropDataset serves DELETE /v1/datasets/{id} through DeleteDataset.
func (m *Manager) DropDataset(_ context.Context, id string) (*DatasetStatus, error) { //lint:allow ctxio -- a daemon tears down in process
	return statusOf(m.DeleteDataset(id))
}

// ListDatasets returns the status of every dataset in creation order.
func (m *Manager) ListDatasets(context.Context) []*DatasetStatus { return statuses(m.Datasets()) }

// Gauges returns the daemon-wide Metrics.
func (m *Manager) Gauges(context.Context) any { return m.Metrics() }

// Families gathers the daemon's Prometheus registry.
func (m *Manager) Families(context.Context) []obs.Family { return m.obs.reg.Gather() }
