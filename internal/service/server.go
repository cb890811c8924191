package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"

	bmmc "repro"
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

// NewHandler wires the manager's HTTP surface:
//
//	POST   /v1/jobs             submit a job (SubmitRequest -> JobStatus, 201)
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/events SSE stream of state and progress events
//	DELETE /v1/jobs/{id}        cancel (or release a terminal job)
//	PUT    /v1/jobs/{id}/input  upload N records in the 16-byte wire format
//	GET    /v1/jobs/{id}/output download the permuted records
//	POST   /v1/datasets         create a dataset (CreateDatasetRequest -> DatasetStatus, 201)
//	GET    /v1/datasets         list datasets in creation order
//	GET    /v1/datasets/{id}    dataset status
//	DELETE /v1/datasets/{id}    delete (409 while jobs are bound; waits for streams)
//	PUT    /v1/datasets/{id}/input  upload N records once, for any number of jobs
//	GET    /v1/datasets/{id}/output download the dataset's current records
//	POST   /v1/datasets/{id}/handoff replicate the dataset to another daemon (HandoffRequest)
//	GET    /v1/metrics          daemon-wide gauges (JSON)
//	GET    /v1/jobs/{id}/trace  the job's span trace (JobTrace JSON)
//	GET    /metrics             Prometheus text exposition of the daemon registry
//
// Errors are JSON objects {"error": "..."} with the appropriate status:
// 400 for invalid requests, 404 for unknown jobs or datasets, 409 for
// wrong-state data plane calls (including dataset deletes while jobs are
// bound), 410 for deleted datasets, 429 when the admission queue is full.
func NewHandler(m *Manager, logger *slog.Logger) http.Handler {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &server{m: m, log: logger}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("PUT /v1/jobs/{id}/input", s.jobInput)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.jobOutput)
	mux.HandleFunc("POST /v1/datasets", s.createDataset)
	mux.HandleFunc("GET /v1/datasets", s.listDatasets)
	mux.HandleFunc("GET /v1/datasets/{id}", s.datasetStatus)
	mux.HandleFunc("DELETE /v1/datasets/{id}", s.deleteDataset)
	mux.HandleFunc("PUT /v1/datasets/{id}/input", s.datasetInput)
	mux.HandleFunc("GET /v1/datasets/{id}/output", s.datasetOutput)
	mux.HandleFunc("POST /v1/datasets/{id}/handoff", s.datasetHandoff)
	mux.HandleFunc("GET /v1/metrics", s.metrics)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.trace)
	mux.Handle("GET /metrics", m.Registry())
	return mux
}

// countReader counts bytes streamed in through the data plane.
type countReader struct {
	r io.Reader
	c interface{ Add(float64) }
}

func (cr countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(float64(n))
	return n, err
}

// countWriter counts bytes streamed out through the data plane.
type countWriter struct {
	w io.Writer
	c interface{ Add(float64) }
}

func (cw countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(float64(n))
	return n, err
}

func (s *server) inBytes(r io.Reader) io.Reader {
	return countReader{r, s.m.obs.dataBytes.With("in")}
}

func (s *server) outBytes(w io.Writer) io.Writer {
	return countWriter{w, s.m.obs.dataBytes.With("out")}
}

type server struct {
	m   *Manager
	log *slog.Logger
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, errUnknownJob(r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	j, err := s.m.Submit(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, j.Status())
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.Jobs()
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Status())
	}
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, j.Status())
}

func (s *server) jobInput(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		s.input(w, r, j.dsEntry.cfg.N, j.Upload)
	}
}

func (s *server) jobOutput(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		s.output(w, r, j.dsEntry, j.openOutput)
	}
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
	if err := upload(r.Context(), &exactBody{io.LimitedReader{R: s.inBytes(r.Body), N: want}}); err != nil {
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
// records once open admits the stream. Admitting before committing headers
// means that once open succeeds the entry cannot gain a job or be deleted
// under us, so wrong-state requests get a clean JSON error and admitted
// requests get the full byte stream — never a 200 with a truncated body.
// Just before the body's last byte is written, the stream stops refusing
// jobs on d (see Gate.Tail), so the client's next job is not refused.
func (s *server) output(w http.ResponseWriter, r *http.Request, d *dsEntry, open func() error) {
	if err := open(); err != nil {
		WriteError(w, err)
		return
	}
	tw := d.Tail(s.outBytes(w))
	defer tw.End()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(int64(d.cfg.N)*bmmc.RecordBytes))
	if err := d.ds.Dump(r.Context(), tw); err != nil {
		// Headers are committed; log and cut the stream short.
		s.log.Warn("output stream aborted", "entry", d.id, "err", err)
	}
}

func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.m.Metrics())
}

// trace serves a job's span ring as JSON: GET /v1/jobs/{id}/trace.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Trace())
	}
}

func (s *server) dataset(w http.ResponseWriter, r *http.Request) (*dsEntry, bool) {
	d, ok := s.m.Dataset(r.PathValue("id"))
	if !ok {
		WriteError(w, errUnknownDataset(r.PathValue("id")))
		return nil, false
	}
	return d, true
}

func (s *server) createDataset(w http.ResponseWriter, r *http.Request) {
	var req CreateDatasetRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	d, err := s.m.CreateDataset(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, d.Status())
}

func (s *server) listDatasets(w http.ResponseWriter, r *http.Request) {
	datasets := s.m.Datasets()
	out := make([]*DatasetStatus, len(datasets))
	for i, d := range datasets {
		out[i] = d.Status()
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *server) datasetStatus(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.dataset(w, r); ok {
		WriteJSON(w, http.StatusOK, d.Status())
	}
}

func (s *server) deleteDataset(w http.ResponseWriter, r *http.Request) {
	d, err := s.m.DeleteDataset(r.PathValue("id"))
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, d.Status())
}

func (s *server) datasetInput(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.dataset(w, r); ok {
		s.input(w, r, d.cfg.N, d.Upload)
	}
}

func (s *server) datasetOutput(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.dataset(w, r); ok {
		s.output(w, r, d, d.StartStream)
	}
}

func (s *server) datasetHandoff(w http.ResponseWriter, r *http.Request) {
	var req HandoffRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	d, err := s.m.HandoffDataset(r.Context(), r.PathValue("id"), req)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, d.Status())
}

func (s *server) events(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		ServeEvents(w, r, j.JobRecord)
	}
}

// ServeEvents streams a job's lifecycle as server-sent events: one "data:"
// line per Event, starting with a snapshot of the current state, ending
// after the terminal state event. Slow consumers may miss progress events
// but never state transitions.
func ServeEvents(w http.ResponseWriter, r *http.Request, src *JobRecord) {
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
