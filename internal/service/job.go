package service

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	bmmc "repro"
	"repro/internal/obs"
)

// Job is one admitted permutation job: the dataset entry it runs on (a
// shared daemon Dataset for chained jobs, or a private entry for this job
// alone, retired on its release: a done job's file or sharded storage goes
// to the manager's pool of spares, and any other is deleted), a prepared
// plan from the manager's shared Engine, and a lifecycle the worker pool
// drives through the State machine. All mutable fields are guarded by mu;
// a standalone job's uploads and downloads are counted as streams on its
// entry.
type Job struct {
	id   string
	perm bmmc.Permutation
	fuse bool

	summary    *PlanSummary
	plan       *bmmc.Plan
	planShared bool // plan came from the manager's shared Engine cache

	dsEntry *dsEntry // execution target: its storage, geometry and backend kind
	ticket  int      // execution-order ticket on dsEntry
	ctx     context.Context
	cancel  context.CancelFunc
	events  *broadcaster
	hook    func(*Job, bmmc.PassEvent) // test instrumentation, run inside onProgress
	enqueue func(*Job)                 // manager callback releasing an await-input job to the workers

	inputTimer *time.Timer // expires a pending await-input job; nil otherwise

	statsBefore bmmc.Stats // dataset stats at claim time; the job's cost is the delta

	// Observability. traceBuf is the job's bounded span ring, which the
	// entry's sink feeds instrumented-backend samples while the job
	// executes; mobs is the manager's registry handle (nil only in
	// bare-constructed tests). The span bookkeeping below is touched by
	// onProgress and finish only. onProgress runs on the worker goroutine
	// or the engine's writer goroutine, one call at a time, and the engine
	// drains its writer before Execute returns, so every call is ordered
	// before finish.
	traceBuf     *obs.TraceBuffer
	mobs         *managerObs
	passStart    time.Time // wall-clock start of the current pass
	loadMark     time.Time // end of the previous memoryload event
	passStartIOs int       // absolute dataset parallel-I/O count at pass start
	lastKernel   string    // kernel of the most recent pass event

	mu          sync.Mutex
	state       State
	errMsg      string
	pending     bool // awaiting input: holds an admission slot, not yet runnable
	inputLoaded bool
	claimed     bool // a worker started processing (planning or beyond)
	released    bool // storage released: torn down, or pooled for the next job
	progress    *Progress
	report      *RunReport
	submitted   time.Time
	started     time.Time
	finished    time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Plan returns the job's prepared plan summary.
func (j *Job) Plan() *PlanSummary { return j.summary }

// Status snapshots the job as its wire representation.
func (j *Job) Status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		Config:      j.dsEntry.cfg,
		Backend:     j.dsEntry.backend,
		Dataset:     j.datasetID(),
		Plan:        j.summary,
		InputLoaded: j.inputLoaded,
		Released:    j.released,
		Submitted:   j.submitted,
	}
	if j.progress != nil {
		p := *j.progress
		st.Progress = &p
	}
	if j.report != nil {
		r := *j.report
		st.Report = &r
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// datasetID names the shared dataset the job runs on, or "" for a
// standalone job on its private entry.
func (j *Job) datasetID() string {
	if j.dsEntry.private {
		return ""
	}
	return j.dsEntry.id
}

// Subscribe attaches to the job's event stream. The first event a new
// subscriber should synthesize is the current state (see Status); the
// channel then carries transitions and progress until the terminal event,
// after which it closes.
func (j *Job) Subscribe() (<-chan Event, func()) { return j.events.subscribe() }

// setState transitions the job and publishes the state event; terminal
// states also stamp the finish time, close the event stream, and drop the
// job's active reference on its dataset entry (so deletes and new streams
// unblock the moment the chain's last job finishes). Callers hold j.mu.
func (j *Job) setStateLocked(s State) {
	wasTerminal := j.state.Terminal()
	j.state = s
	if s.Terminal() {
		j.finished = time.Now()
	}
	if j.mobs != nil {
		j.mobs.jobTransition(j, s, j.errMsg)
	}
	j.events.publish(Event{Type: EventState, JobID: j.id, State: s, Error: j.errMsg})
	if s.Terminal() {
		j.events.close()
		if !wasTerminal {
			j.dsEntry.jobDone()
		}
	}
}

// onProgress is the job's per-Execute WithProgress callback. It runs at
// pass start on the worker goroutine and, after each memoryload's writes
// are counted, on the engine's writer goroutine, one call at a time. It
// updates the snapshot and fans the event out without blocking.
func (j *Job) onProgress(ev bmmc.PassEvent) {
	p := &Progress{Pass: ev.Pass, Passes: ev.Passes, Kind: ev.Kind, Load: ev.Load, Loads: ev.Loads}
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
	j.events.publish(Event{Type: EventProgress, JobID: j.id, Progress: p})
	j.observePass(ev)
	if j.hook != nil {
		j.hook(j, ev)
	}
}

// observePass turns the progress event stream into trace spans and exact
// per-pass I/O attribution. Events fire at pass start (Load == 0) and
// after every completed memoryload's writes are counted, before any later
// memoryload's writes; the writer goroutine of the engine's pipeline fires
// the latter. The final one (Load == Loads) therefore follows the pass's
// last counted write, and the next pass's reads begin only after it, so
// dataset Stats snapshots at the boundaries delta to exactly the pass's
// parallel I/Os (jobs on one dataset are turnstile-serialized).
func (j *Job) observePass(ev bmmc.PassEvent) {
	if j.traceBuf == nil {
		return
	}
	now := time.Now()
	j.lastKernel = ev.Kernel
	if ev.Load == 0 {
		j.passStart, j.loadMark = now, now
		j.passStartIOs = j.dsEntry.ds.Stats().ParallelIOs()
		return
	}
	j.traceBuf.Add(obs.Span{
		Name: obs.SpanLoad, Kind: ev.Kind, Kernel: ev.Kernel,
		Pass: ev.Pass, Load: ev.Load, Start: j.loadMark, End: now,
	})
	j.loadMark = now
	if ev.Load != ev.Loads {
		return
	}
	ios := j.dsEntry.ds.Stats().ParallelIOs() - j.passStartIOs
	span := obs.Span{
		Name: obs.SpanPass, Kind: ev.Kind, Kernel: ev.Kernel,
		Pass: ev.Pass, IOs: ios, Start: j.passStart, End: now,
	}
	j.traceBuf.Add(span)
	j.passStartIOs += ios
	if j.mobs != nil {
		j.mobs.passIOs.With(j.summary.Class, ev.Kernel).Add(float64(ios))
	}
	j.events.publish(Event{Type: EventSpan, JobID: j.id, Span: &span})
}

// Trace snapshots the job's span ring as the wire trace. The trace id is
// the job id; the cluster layer reuses it when stitching worker sub-job
// spans under a striped job.
func (j *Job) Trace() *JobTrace {
	tr := &JobTrace{TraceID: j.id, JobID: j.id, Spans: []obs.Span{}}
	if j.traceBuf != nil {
		spans, dropped := j.traceBuf.Snapshot()
		tr.Spans, tr.Dropped = spans, dropped
	}
	return tr
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
	err := d.ds.Load(loadCtx, r)
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
	d.endStream(err == nil) // wakes a worker waiting to claim the job
	j.mu.Unlock()
	if release {
		j.enqueue(j)
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
	return d.startStream()
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
	return d.startStream()
}

// Download streams the job's permuted records to w in the wire format.
// Only done jobs whose storage has not been released have output; the
// stream registers on the job's entry so a concurrent release (DELETE,
// Shutdown) waits for it rather than closing storage mid-read.
func (j *Job) Download(ctx context.Context, w io.Writer) error {
	return j.dsEntry.download(ctx, w, j.openOutput)
}
