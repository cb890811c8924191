package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	bmmc "repro"
	"repro/internal/obs"
)

// JobRecord is the wire-visible half of a job, one type for bmmcd's jobs
// and the cluster coordinator's striped jobs: the id and plan summary, the
// lifecycle state, error, report and timestamps, the event stream and span
// ring, and the root context the job's run observes. It is bound to the
// Gate that admitted the job, and its status takes the dataset's id,
// geometry and backend from that gate, with the input state as of
// admission. Every transition goes through it, so one rule holds for both
// tiers: the first terminal transition drops the job's active reference on
// the gate before the terminal event is published, so a client that
// streams or deletes on that event is admitted.
type JobRecord struct {
	id      string
	summary *PlanSummary
	gate    *Gate
	ctx     context.Context
	cancel  context.CancelFunc
	events  *Broadcaster
	trace   *obs.TraceBuffer
	// audit, when set, sees each transition just before it is published:
	// bmmcd's transition counter and audit log.
	audit func(r *JobRecord, to State, errMsg string)

	mu          sync.Mutex
	state       State
	errMsg      string
	inputLoaded bool
	released    bool      // bmmcd: storage released, torn down or pooled for the next job
	progress    *Progress // bmmcd: the last reported pass position
	report      *RunReport
	submitted   time.Time
	started     time.Time
	finished    time.Time
}

// NewJobRecord returns the queued record of job id, planned as pl, once
// g.Bind has admitted it.
func NewJobRecord(id string, g *Gate, pl *bmmc.Plan) *JobRecord {
	// The job outlives the submitting request; its root is canceled by the
	// job's own cancel, not by the submitter hanging up.
	//lint:allow ctxio -- job-lifetime root; canceled via the job's own cancel
	ctx, cancel := context.WithCancel(context.Background())
	g.mu.Lock()
	loaded := g.loaded
	g.mu.Unlock()
	return &JobRecord{
		id: id, summary: Summarize(pl), gate: g, ctx: ctx, cancel: cancel,
		events: NewBroadcaster(), trace: obs.NewTraceBuffer(id, 0),
		state: StateQueued, inputLoaded: loaded, submitted: time.Now(),
	}
}

// ID returns the job's identifier.
func (r *JobRecord) ID() string { return r.id }

func (r *JobRecord) record() *JobRecord { return r }

// Plan returns the job's prepared plan summary.
func (r *JobRecord) Plan() *PlanSummary { return r.summary }

// Context returns the job's root context, canceled by Cancel.
func (r *JobRecord) Context() context.Context { return r.ctx }

// Cancel requests the job's stop: its run observes the root context.
func (r *JobRecord) Cancel() { r.cancel() }

// State returns the job's current lifecycle state.
func (r *JobRecord) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Status snapshots the job as its wire representation.
func (r *JobRecord) Status() *JobStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked()
}

func (r *JobRecord) statusLocked() *JobStatus {
	st := &JobStatus{
		ID:          r.id,
		State:       r.state,
		Error:       r.errMsg,
		Config:      r.gate.cfg,
		Backend:     r.gate.backend,
		Dataset:     r.datasetID(),
		Plan:        r.summary,
		InputLoaded: r.inputLoaded,
		Released:    r.released,
		Submitted:   r.submitted,
	}
	if r.progress != nil {
		p := *r.progress
		st.Progress = &p
	}
	if r.report != nil {
		rep := *r.report
		st.Report = &rep
	}
	if !r.started.IsZero() {
		t := r.started
		st.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		st.Finished = &t
	}
	return st
}

// datasetID names the shared dataset the job runs on, or "" for a
// standalone job on its private entry.
func (r *JobRecord) datasetID() string {
	if r.gate.private {
		return ""
	}
	return r.gate.id
}

// Subscribe attaches to the job's event stream. The first event a new
// subscriber should synthesize is the current state (see Status); the
// channel then carries transitions and progress until the terminal event,
// after which it closes.
func (r *JobRecord) Subscribe() (<-chan Event, func()) { return r.events.Subscribe() }

// SetState moves a claimed job to the non-terminal state s and publishes
// it.
func (r *JobRecord) SetState(s State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setStateLocked(s)
}

// Finish records the outcome of the job's run: done with rep when err is
// nil, canceled when err is a cancellation or the job was canceled, failed
// otherwise. It returns the terminal state.
func (r *JobRecord) Finish(rep *RunReport, err error) State {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		r.report = rep
		r.setStateLocked(StateDone)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || r.ctx.Err() != nil:
		r.errMsg = err.Error()
		r.setStateLocked(StateCanceled)
	default:
		r.errMsg = err.Error()
		r.setStateLocked(StateFailed)
	}
	return r.state
}

// setStateLocked transitions the job and publishes the state event. The
// first state past queued stamps the start (a worker claimed the job); a
// terminal state stamps the finish, drops the job's active reference on
// its gate the first time, and closes the event stream after the event.
// Callers hold r.mu.
func (r *JobRecord) setStateLocked(s State) {
	switch now := time.Now(); {
	case s.Terminal():
		if !r.state.Terminal() {
			r.gate.JobDone()
		}
		r.finished = now
	case r.started.IsZero():
		r.started = now
	}
	r.state = s
	if r.audit != nil {
		r.audit(r, s, r.errMsg)
	}
	r.events.Publish(Event{Type: EventState, JobID: r.id, State: s, Error: r.errMsg})
	if s.Terminal() {
		r.events.Close()
	}
}

// AddSpan appends a span to the job's trace ring.
func (r *JobRecord) AddSpan(s obs.Span) { r.trace.Add(s) }

// Trace snapshots the job's span ring as the wire trace. The trace id is
// the job id; the cluster layer reuses it when stitching worker sub-job
// spans under a striped job.
func (r *JobRecord) Trace() *JobTrace {
	spans, dropped := r.trace.Snapshot()
	return &JobTrace{TraceID: r.id, JobID: r.id, Spans: spans, Dropped: dropped}
}

// Job is one admitted bmmcd job: its record, the manager that admitted
// it, the dataset entry it runs on (a shared daemon Dataset for chained
// jobs, or a private entry for this job alone, retired on its release: a
// done job's file or sharded storage goes to the manager's pool of
// spares, and any other is deleted), a prepared plan from the manager's
// shared Engine, and the upload and claim state the worker pool drives,
// guarded by the record's mu. A standalone job's uploads and downloads
// are counted as streams on its entry.
type Job struct {
	*JobRecord
	m *Manager

	plan       *bmmc.Plan
	planShared bool // plan came from the manager's shared Engine cache

	dsEntry *dsEntry // execution target: its storage, geometry and backend kind
	ticket  int      // execution-order ticket on dsEntry

	inputTimer *time.Timer // expires a pending await-input job; nil otherwise

	statsBefore bmmc.Stats // dataset stats at claim time; the job's cost is the delta

	// Observability. The record's trace ring takes the entry sink's
	// instrumented-backend samples while the job executes. The span
	// bookkeeping below is touched by onProgress and finish only.
	// onProgress runs on the worker goroutine or the engine's writer
	// goroutine, one call at a time, and the engine drains its writer
	// before Execute returns, so every call is ordered before finish.
	passStart time.Time // wall-clock start of the current pass
	loadMark  time.Time // end of the previous memoryload event
	passIOs   int       // parallel I/Os the current pass's loads counted so far

	pending bool // awaiting input: holds an admission slot, not yet runnable
	claimed bool // a worker started processing (planning or beyond)
}

// Stop cancels the job, or releases it once it is terminal (see
// Manager.Cancel).
func (j *Job) Stop() { j.m.Cancel(j.id) }

// FullTrace returns the job's trace: a daemon job runs no sub-jobs.
func (j *Job) FullTrace(context.Context) *JobTrace { return j.Trace() }

// onProgress is the job's per-Execute WithProgress callback. It runs at
// pass start on the worker goroutine and, after each memoryload's writes
// are counted, on the engine's writer goroutine, one call at a time. It
// updates the snapshot and fans the event out without blocking.
func (j *Job) onProgress(ev bmmc.PassEvent) {
	p := &Progress{Pass: ev.Pass, Passes: ev.Passes, Kind: ev.Kind, Load: ev.Load, Loads: ev.Loads}
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
	j.events.Publish(Event{Type: EventProgress, JobID: j.id, Progress: p})
	j.observePass(ev)
	if hook := j.m.cfg.hook; hook != nil {
		hook(j, ev)
	}
}

// observePass turns the progress event stream into trace spans and exact
// per-pass I/O attribution. Events fire at pass start (Load == 0) and
// after every completed memoryload's writes are counted, each carrying the
// parallel I/Os its load counted, so a completed pass's I/Os are the sum
// of its load events. A pass cut short by cancellation or a fault never
// reaches its final event and is charged nothing.
func (j *Job) observePass(ev bmmc.PassEvent) {
	now := time.Now()
	if ev.Load == 0 {
		j.passStart, j.loadMark, j.passIOs = now, now, 0
		return
	}
	j.AddSpan(obs.Span{
		Name: obs.SpanLoad, Kind: ev.Kind, Kernel: ev.Kernel,
		Pass: ev.Pass, Load: ev.Load, Start: j.loadMark, End: now,
	})
	j.loadMark = now
	j.passIOs += ev.IOs
	if ev.Load != ev.Loads {
		return
	}
	span := obs.Span{
		Name: obs.SpanPass, Kind: ev.Kind, Kernel: ev.Kernel,
		Pass: ev.Pass, IOs: j.passIOs, Start: j.passStart, End: now,
	}
	j.AddSpan(span)
	j.m.obs.passIOs.With(j.summary.Class, ev.Kernel).Add(float64(j.passIOs))
	j.events.Publish(Event{Type: EventSpan, JobID: j.id, Span: &span})
}

// Upload replaces the job's stored records with N records read from r in
// the 16-byte wire format. Only queued standalone jobs accept input — once
// a worker claims the job the data is sealed — and one upload may be in
// flight at a time. ctx is the transport context (the HTTP request); the
// job's own context also aborts the read when the job is canceled
// mid-upload.
func (j *Job) Upload(ctx context.Context, r io.Reader) error {
	if err := j.openInput(); err != nil {
		return err
	}
	d := j.dsEntry
	loadCtx, cancelLoad := context.WithCancel(ctx)
	stop := context.AfterFunc(j.ctx, cancelLoad) // job cancellation aborts the read too
	err := d.ds.Load(loadCtx, countReader{r, d.bytes.With("in")})
	stop()
	cancelLoad()

	j.mu.Lock()
	release := false
	if err == nil {
		j.inputLoaded = true
		if j.pending { // await-input job: the upload makes it runnable
			j.pending = false
			release = true
			if j.inputTimer != nil {
				j.inputTimer.Stop()
			}
		}
	}
	d.EndStream(err == nil) // wakes a worker waiting to claim the job
	j.mu.Unlock()
	if release {
		j.m.enqueue(j)
	}
	if err != nil {
		return loadError("loading input", err)
	}
	return nil
}

// openInput admits an upload: the job must be a standalone job that is
// queued, unclaimed and not already receiving one. The worker claims a
// job under j.mu only while its entry is idle, so a stream started under
// j.mu never overlaps a claim.
func (j *Job) openInput() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := j.dsEntry
	switch {
	case !d.private:
		return &httpError{http.StatusConflict,
			"job " + j.id + " runs on dataset " + d.id + ": upload via PUT /v1/datasets/" + d.id + "/input before submitting"}
	case j.state != StateQueued || j.claimed:
		return &httpError{http.StatusConflict, "job " + j.id + " is " + string(j.state) + ": input accepted only while queued"}
	case !d.idle():
		return &httpError{http.StatusConflict, "job " + j.id + " already has an upload in flight"}
	}
	return d.StartStream()
}

// openOutput admits a download of the job's output: the job must be done,
// run on its private entry (dataset-handle jobs serve output through the
// dataset resource), and not be released. The admitted stream holds off
// release until it ends.
func (j *Job) openOutput() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := j.dsEntry
	switch {
	case !d.private:
		return &httpError{http.StatusConflict,
			"job " + j.id + " runs on dataset " + d.id + ": download via GET /v1/datasets/" + d.id + "/output"}
	case j.state != StateDone:
		return &httpError{http.StatusConflict, "job " + j.id + " is " + string(j.state) + ": output available only when done"}
	case j.released:
		return &httpError{http.StatusGone, "job " + j.id + " storage has been released"}
	}
	return d.StartStream()
}

// Output admits a download of the job's permuted records and returns the
// entry to dump them from (see openOutput).
func (j *Job) Output() (LocalDataset, error) {
	if err := j.openOutput(); err != nil {
		return nil, err
	}
	return j.dsEntry, nil
}

// Download streams the job's permuted records to w in the wire format.
// Only done jobs whose storage has not been released have output; the
// stream registers on the job's entry so a concurrent release (DELETE,
// Shutdown) waits for it rather than closing storage mid-read.
func (j *Job) Download(ctx context.Context, w io.Writer) error {
	return j.dsEntry.download(ctx, w, j.openOutput)
}
