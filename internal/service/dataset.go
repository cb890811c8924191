package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	bmmc "repro"
	"repro/internal/pdm"
)

// dsEntry is one daemon-resident dataset: a bmmc.Dataset on provisioned
// storage plus the service-level bookkeeping that lets jobs run on it
// safely. Every job runs on an entry. A shared entry is created through
// POST /v1/datasets, registered in the manager's dataset table and chained
// on by any number of jobs. A private entry belongs to one standalone job:
// it is never registered, so only its job's data plane reaches it, and the
// job's release retires it. A done job's file or sharded storage then
// outlives the entry as a spare, which the next standalone job of its kind
// and geometry takes over in an entry of its own; otherwise the release
// deletes the storage. The entry owns three invariants:
//
//   - Jobs bound to one dataset execute in submission order (the ticket
//     turnstile), so a chain "bit-reversal then its inverse" composes the
//     way the submitter wrote it even with a multi-worker pool.
//   - The data plane and the job plane exclude each other. A shared entry
//     admits uploads and downloads only while no job is active, and jobs
//     only while no stream is in flight, so a stream never observes (or
//     feeds) a half-permuted dataset. A download writing its last byte no
//     longer refuses a job (see dsEntry.tail). A private entry leaves
//     admission to its job, which accepts an upload only while it is
//     queued and unclaimed and a download only once it is done; the
//     worker claims the job only while the entry is idle.
//   - Deletion is refused (409) while jobs are active, waits for in-flight
//     streams to drain, and is idempotent; Shutdown drains datasets the
//     same way it drains jobs.
type dsEntry struct {
	id      string
	backend string
	cfg     bmmc.Config
	private bool          // owned by one standalone job; absent from the dataset table
	ds      *bmmc.Dataset // nil only while provisioning fails
	dir     string        // provisioned storage directory ("" for mem)
	sink    *ioSink       // routes instrumented-backend samples to the running job
	created time.Time

	turns Turnstile // execution order of the jobs bound here

	mu       sync.Mutex
	cond     *sync.Cond // signaled when a stream ends or a job goes terminal
	active   int        // jobs bound to this dataset that are not yet terminal
	jobsRun  int        // jobs that executed on this dataset
	loaded   bool       // user records uploaded (else canonical)
	streams  int        // uploads + downloads in flight
	tails    int        // of those, downloads writing their last byte
	handoff  bool       // replica transfer in flight; data and job planes closed
	released bool       // retired: storage torn down (or being torn down) or pooled as a spare
}

func newDSEntry(id, backend string, cfg bmmc.Config, private bool) *dsEntry {
	d := &dsEntry{id: id, backend: backend, cfg: cfg, private: private, sink: &ioSink{}, created: time.Now()}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// Turnstile admits tickets one at a time in the order Bind hands them out:
// bmmcd's jobs on one dataset entry and the cluster coordinator's striped
// jobs on one placement run through one each. The zero value is ready.
type Turnstile struct {
	mu      sync.Mutex
	next    int           // next ticket to hand out
	serving int           // ticket currently allowed to proceed
	retired map[int]bool  // tickets retired ahead of their turn
	turn    chan struct{} // closed at each Retire so waiters re-check; nil until a Wait needs it
}

// Bind hands out the next ticket.
func (t *Turnstile) Bind() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next - 1
}

// Wait blocks until ticket is being served, or returns ctx's error once
// ctx ends first.
func (t *Turnstile) Wait(ctx context.Context, ticket int) error {
	for {
		t.mu.Lock()
		if t.serving == ticket {
			t.mu.Unlock()
			return nil
		}
		if t.turn == nil {
			t.turn = make(chan struct{})
		}
		turn := t.turn
		t.mu.Unlock()
		select {
		case <-turn:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Retire takes ticket out of the turnstile: after its holder ran, gave up
// its turn, or never reached it. Each ticket is retired exactly once, in
// any order; the turnstile advances past every consecutively retired
// ticket.
func (t *Turnstile) Retire(ticket int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.retired == nil {
		t.retired = make(map[int]bool)
	}
	t.retired[ticket] = true
	for t.retired[t.serving] {
		delete(t.retired, t.serving)
		t.serving++
	}
	if t.turn != nil {
		close(t.turn)
		t.turn = nil
	}
}

// errDatasetGone is the terminal-state error for data-plane and job
// submissions against a deleted dataset.
func (d *dsEntry) errGone() error {
	return &httpError{http.StatusGone, "dataset " + d.id + " has been deleted"}
}

// bind reserves an execution-order ticket for a new job on this dataset,
// counting the job as active until it reaches a terminal state. It refuses
// deleted datasets and datasets with a stream in flight (finish uploads
// before chaining jobs).
func (d *dsEntry) bind() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.released {
		return 0, d.errGone()
	}
	if d.streams > d.tails {
		return 0, &httpError{http.StatusConflict, "dataset " + d.id + " has an upload or download in flight"}
	}
	if d.handoff {
		return 0, d.errHandoff()
	}
	d.active++
	return d.turns.Bind(), nil
}

// jobDone drops a terminal job's active reference (each job calls it
// exactly once, from its terminal state transition).
func (d *dsEntry) jobDone() {
	d.mu.Lock()
	d.active--
	d.cond.Broadcast()
	d.mu.Unlock()
}

// ran records that a job actually executed on the dataset.
func (d *dsEntry) ran() {
	d.mu.Lock()
	d.jobsRun++
	d.mu.Unlock()
}

// startStream admits an upload or download while the dataset is alive and
// not being handed off. A shared entry also refuses while a job is queued
// or running on it; a private entry's job has already vetted the stream
// (see Job.Upload and Job.openOutput).
func (d *dsEntry) startStream() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.released {
		return d.errGone()
	}
	if d.active > 0 && !d.private {
		return &httpError{http.StatusConflict, "dataset " + d.id + " has active jobs: wait for them before streaming data"}
	}
	if d.handoff {
		return d.errHandoff()
	}
	d.streams++
	return nil
}

// idle reports whether no stream is in flight.
func (d *dsEntry) idle() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.streams == 0
}

// waitIdle blocks until no stream is in flight.
func (d *dsEntry) waitIdle() {
	d.mu.Lock()
	for d.streams > 0 {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// errHandoff is the wrong-state error for calls racing a handoff; 503
// marks it transient, since the dataset reappears (here or on the
// handoff target) moments later.
func (d *dsEntry) errHandoff() error {
	return &httpError{http.StatusServiceUnavailable, "dataset " + d.id + " is being handed off to another node"}
}

// beginHandoff closes both planes for a replica transfer: no new job may
// bind and no new stream may start until finishHandoff. It holds a stream
// slot so deletion drains behind it like behind any data-plane user.
func (d *dsEntry) beginHandoff() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.released {
		return d.errGone()
	}
	if d.active > 0 {
		return &httpError{http.StatusConflict, "dataset " + d.id + " has active jobs: await them before handing off"}
	}
	if d.streams > 0 {
		return &httpError{http.StatusConflict, "dataset " + d.id + " has an upload or download in flight"}
	}
	if d.handoff {
		return d.errHandoff()
	}
	d.handoff = true
	d.streams++
	return nil
}

// finishHandoff reopens the dataset — or, when deleteLocal is set after a
// successful transfer, atomically releases it so no job can slip in
// between the transfer and the delete. It reports whether the caller now
// owns the storage teardown, exactly like tryRelease.
func (d *dsEntry) finishHandoff(deleteLocal bool) (owner bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handoff = false
	d.streams--
	if deleteLocal && !d.released {
		d.released = true
		for d.streams > 0 {
			d.cond.Wait()
		}
		owner = true
	}
	d.cond.Broadcast()
	return owner
}

// endStream retires a stream, marking the dataset loaded when an upload
// completed successfully.
func (d *dsEntry) endStream(uploaded bool) {
	d.mu.Lock()
	d.streams--
	if uploaded {
		d.loaded = true
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Upload replaces the dataset's records with N records from r in the
// 16-byte wire format. ctx is the transport context.
func (d *dsEntry) Upload(ctx context.Context, r io.Reader) error {
	if err := d.startStream(); err != nil {
		return err
	}
	err := d.ds.Load(ctx, r)
	d.endStream(err == nil)
	if err != nil {
		return loadError("loading dataset input", err)
	}
	return nil
}

// loadError maps a failed upload to its status: a fault in the client's
// stream — short, unreadable or canceled — is the client's 400, a storage
// fault the daemon's 500. Either way the stored records are unchanged.
func loadError(what string, err error) error {
	status := http.StatusInternalServerError
	if errors.Is(err, pdm.ErrInput) {
		status = http.StatusBadRequest
	}
	return &httpError{status, what + ": " + err.Error()}
}

// Download streams the dataset's current records — the output of the most
// recent chained job — to w in the wire format.
func (d *dsEntry) Download(ctx context.Context, w io.Writer) error {
	return d.download(ctx, w, d.startStream)
}

// download admits a stream with open, then dumps the records to w.
func (d *dsEntry) download(ctx context.Context, w io.Writer, open func() error) error {
	if err := open(); err != nil {
		return err
	}
	tw := d.tail(w)
	defer tw.end()
	return d.ds.Dump(ctx, tw)
}

// tail wraps an admitted download's writer. Just before the write that
// delivers the body's last byte, the download stops refusing binds, so a
// client that holds the whole body can chain its next job at once instead
// of racing the handler's return for a 409. That is safe: DumpTo has
// already copied that chunk into its pooled slab, and Dump's read lock
// still holds back a bound job's run until Dump returns. The download is
// still a stream, so deletes, handoffs and Shutdown wait for it; the
// caller defers end, which retires it.
func (d *dsEntry) tail(w io.Writer) *tailWriter {
	return &tailWriter{w: w, left: int64(d.cfg.N) * bmmc.RecordBytes, d: d}
}

// tailWriter is a download's writer; see dsEntry.tail. Dump calls it on
// one goroutine.
type tailWriter struct {
	w      io.Writer
	left   int64 // bytes of the body not yet written
	d      *dsEntry
	atTail bool // counted in d.tails
}

func (t *tailWriter) Write(p []byte) (int, error) {
	if !t.atTail && int64(len(p)) >= t.left {
		t.d.mu.Lock()
		t.d.tails++
		t.d.mu.Unlock()
		t.atTail = true
	}
	n, err := t.w.Write(p)
	t.left -= int64(n)
	return n, err
}

// end retires the download's stream.
func (t *tailWriter) end() {
	d := t.d
	d.mu.Lock()
	d.streams--
	if t.atTail {
		d.tails--
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Status snapshots the dataset as its wire representation.
func (d *dsEntry) Status() *DatasetStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &DatasetStatus{
		ID:          d.id,
		Config:      d.cfg,
		Backend:     d.backend,
		InputLoaded: d.loaded,
		ActiveJobs:  d.active,
		JobsRun:     d.jobsRun,
		Released:    d.released,
		Created:     d.created,
	}
}

// tryRelease marks the dataset deleted if no job is active, then waits for
// in-flight streams to drain. It returns whether the caller now owns the
// storage teardown (exactly one caller ever does) — a second delete of an
// already-released dataset is a successful no-op.
func (d *dsEntry) tryRelease() (owner bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.released {
		return false, nil
	}
	if d.active > 0 {
		return false, &httpError{http.StatusConflict, "dataset " + d.id + " has active jobs: cancel or await them before deleting"}
	}
	d.released = true
	for d.streams > 0 {
		d.cond.Wait()
	}
	return true, nil
}
