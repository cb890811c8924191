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

// httpError is an error that knows its HTTP status. The manager and jobs
// return these; anything else renders as 500.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// Status returns the HTTP status the error maps to.
func (e *httpError) Status() int { return e.status }

func errUnknownJob(id string) error {
	return &httpError{http.StatusNotFound, fmt.Sprintf("unknown job %q", id)}
}

func errUnknownDataset(id string) error {
	return &httpError{http.StatusNotFound, fmt.Sprintf("unknown dataset %q", id)}
}

// maxSubmitBody bounds POST /v1/jobs bodies; a marshaled permutation on
// 64-bit addresses is under 5 KB, so 1 MB is generous.
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

func (s *server) writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.Status()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		s.writeErr(w, errUnknownJob(r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err := dec.Decode(&req); err != nil {
		s.writeErr(w, &httpError{http.StatusBadRequest, "decoding request: " + err.Error()})
		return
	}
	j, err := s.m.Submit(req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, j.Status())
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.Jobs()
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		s.writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, j.Status())
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
// the wire format, handed to upload.
func (s *server) input(w http.ResponseWriter, r *http.Request, n int, upload func(context.Context, io.Reader) error) {
	if want := int64(n) * bmmc.RecordBytes; r.ContentLength >= 0 && r.ContentLength != want {
		s.writeErr(w, &httpError{http.StatusBadRequest,
			fmt.Sprintf("input must be exactly N*%d = %d bytes, got Content-Length %d", bmmc.RecordBytes, want, r.ContentLength)})
		return
	}
	if err := upload(r.Context(), s.inBytes(r.Body)); err != nil {
		s.writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// output serves a job's or a dataset's GET .../output: it streams d's
// records once open admits the stream. Admitting before committing headers
// means that once open succeeds the entry cannot gain a job or be deleted
// under us, so wrong-state requests get a clean JSON error and admitted
// requests get the full byte stream — never a 200 with a truncated body.
// Just before the body's last byte is written, the stream stops refusing
// jobs on d (see dsEntry.tail), so the client's next job is not refused.
func (s *server) output(w http.ResponseWriter, r *http.Request, d *dsEntry, open func() error) {
	if err := open(); err != nil {
		s.writeErr(w, err)
		return
	}
	tw := d.tail(s.outBytes(w))
	defer tw.end()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(int64(d.cfg.N)*bmmc.RecordBytes))
	if err := d.ds.Dump(r.Context(), tw); err != nil {
		// Headers are committed; log and cut the stream short.
		s.log.Warn("output stream aborted", "entry", d.id, "err", err)
	}
}

func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.m.Metrics())
}

// trace serves a job's span ring as JSON: GET /v1/jobs/{id}/trace.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		s.writeJSON(w, http.StatusOK, j.Trace())
	}
}

func (s *server) dataset(w http.ResponseWriter, r *http.Request) (*dsEntry, bool) {
	d, ok := s.m.Dataset(r.PathValue("id"))
	if !ok {
		s.writeErr(w, errUnknownDataset(r.PathValue("id")))
		return nil, false
	}
	return d, true
}

func (s *server) createDataset(w http.ResponseWriter, r *http.Request) {
	var req CreateDatasetRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err := dec.Decode(&req); err != nil {
		s.writeErr(w, &httpError{http.StatusBadRequest, "decoding request: " + err.Error()})
		return
	}
	d, err := s.m.CreateDataset(req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, d.Status())
}

func (s *server) listDatasets(w http.ResponseWriter, r *http.Request) {
	datasets := s.m.Datasets()
	out := make([]*DatasetStatus, len(datasets))
	for i, d := range datasets {
		out[i] = d.Status()
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *server) datasetStatus(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.dataset(w, r); ok {
		s.writeJSON(w, http.StatusOK, d.Status())
	}
}

func (s *server) deleteDataset(w http.ResponseWriter, r *http.Request) {
	d, err := s.m.DeleteDataset(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, d.Status())
}

func (s *server) datasetInput(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.dataset(w, r); ok {
		s.input(w, r, d.cfg.N, d.Upload)
	}
}

func (s *server) datasetOutput(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.dataset(w, r); ok {
		s.output(w, r, d, d.startStream)
	}
}

func (s *server) datasetHandoff(w http.ResponseWriter, r *http.Request) {
	var req HandoffRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err := dec.Decode(&req); err != nil {
		s.writeErr(w, &httpError{http.StatusBadRequest, "decoding request: " + err.Error()})
		return
	}
	d, err := s.m.HandoffDataset(r.Context(), r.PathValue("id"), req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, d.Status())
}

// events streams a job's lifecycle as server-sent events: one "data:" line
// per Event, starting with a snapshot of the current state, ending after
// the terminal state event. Slow consumers may miss progress events but
// never state transitions.
func (s *server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
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

	ch, cancelSub := j.Subscribe()
	defer cancelSub()

	// Snapshot first: a subscriber always learns the current state even if
	// no further transitions happen. The snapshot may duplicate (or, very
	// rarely, run ahead of) a buffered transition; consumers treat events
	// as idempotent status updates.
	st := j.Status()
	if !send(Event{Type: EventState, JobID: j.ID(), State: st.State, Error: st.Error}) {
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
