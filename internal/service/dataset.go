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
	"repro/internal/pdm"
)

// dsEntry is one daemon-resident dataset: a bmmc.Dataset on provisioned
// storage behind the Gate that lets jobs run on it safely. Every job runs
// on an entry. A shared entry is created through POST /v1/datasets,
// registered in the manager's dataset table and chained on by any number
// of jobs. A private entry belongs to one standalone job: it is never
// registered, so only its job's data plane reaches it, and the job's
// release retires it. A done job's file or sharded storage then outlives
// the entry as a spare, which the next standalone job of its kind and
// geometry takes over in an entry of its own; otherwise the release
// deletes the storage.
type dsEntry struct {
	*Gate                 // admission: job order, job/stream exclusion, deletion
	ds    *bmmc.Dataset   // nil only while provisioning fails
	dir   string          // provisioned storage directory ("" for mem)
	sink  *ioSink         // routes instrumented-backend samples to the running job
	bytes *obs.CounterVec // counts the record bytes its data plane moves
}

func newDSEntry(id, backend string, cfg bmmc.Config, private bool, bytes *obs.CounterVec) *dsEntry {
	d := &dsEntry{sink: &ioSink{}, bytes: bytes,
		Gate: NewGate(DatasetStatus{ID: id, Config: cfg, Backend: backend, Created: time.Now()})}
	d.private = private
	return d
}

// Gate is one dataset's admission state machine: it decides which jobs may
// run on the dataset, in which order, and which uploads and downloads may
// start. Every bmmcd dataset entry embeds one, and the cluster coordinator
// holds one per striped dataset, so a striped dataset answers as a daemon
// dataset does. A gate owns three invariants:
//
//   - Jobs bound to the dataset execute in submission order (the ticket
//     turnstile), so a chain "bit-reversal then its inverse" composes the
//     way the submitter wrote it even with a multi-worker pool.
//   - The data plane and the job plane exclude each other. A shared
//     dataset admits uploads and downloads only while no job is active,
//     and jobs only while no stream is in flight, so a stream never
//     observes (or feeds) a half-permuted dataset. A download writing its
//     last byte no longer refuses a job (see Gate.Tail). A private entry
//     leaves admission to its job, which accepts an upload only while it
//     is queued and unclaimed and a download only once it is done; the
//     worker claims the job only while the entry is idle.
//   - Deletion is refused (409) while jobs are active, waits for in-flight
//     streams to drain, and is idempotent; Shutdown drains datasets the
//     same way it drains jobs.
type Gate struct {
	id      string
	cfg     bmmc.Config
	backend string
	created time.Time
	private bool // owned by one standalone job, which vets its streams

	mu       sync.Mutex
	cond     *sync.Cond // signaled when a stream ends or a job goes terminal
	active   int        // jobs bound to this dataset that are not yet terminal
	jobsRun  int        // jobs that executed on this dataset
	loaded   bool       // user records uploaded (else canonical)
	streams  int        // uploads + downloads in flight
	tails    int        // of those, downloads writing their last byte
	handoff  bool       // replica transfer in flight; data and job planes closed
	released bool       // deleted; bmmcd's storage torn down (or being torn down) or pooled as a spare

	// The ticket turnstile: bound jobs execute in the order Bind hands
	// their tickets out.
	next    int           // next ticket to hand out
	serving int           // ticket currently allowed to execute
	retired map[int]bool  // tickets retired ahead of their turn
	turn    chan struct{} // closed at each Retire so waiters re-check; nil until a Wait needs it
}

// NewGate returns the open gate of the dataset st describes, loaded as st
// says, with no job bound or run and no stream in flight.
func NewGate(st DatasetStatus) *Gate {
	g := &Gate{id: st.ID, cfg: st.Config, backend: st.Backend, created: st.Created,
		loaded: st.InputLoaded, retired: map[int]bool{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// errGone is the terminal-state error for data-plane and job submissions
// against a deleted dataset.
func (g *Gate) errGone() error {
	return &httpError{http.StatusGone, "dataset " + g.id + " has been deleted"}
}

// Bind reserves an execution-order ticket for a new job on this dataset,
// counting the job as active until JobDone. It refuses deleted datasets
// and datasets with a stream in flight (finish uploads before chaining
// jobs).
func (g *Gate) Bind() (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return 0, g.errGone()
	}
	if g.streams > g.tails {
		return 0, &httpError{http.StatusConflict, "dataset " + g.id + " has an upload or download in flight"}
	}
	if g.handoff {
		return 0, g.errHandoff()
	}
	g.active++
	g.next++
	return g.next - 1, nil
}

// Wait blocks until the job holding ticket may execute, or returns ctx's
// error once ctx ends first.
func (g *Gate) Wait(ctx context.Context, ticket int) error {
	for {
		g.mu.Lock()
		if g.serving == ticket {
			g.mu.Unlock()
			return nil
		}
		if g.turn == nil {
			g.turn = make(chan struct{})
		}
		turn := g.turn
		g.mu.Unlock()
		select {
		case <-turn:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Retire takes ticket out of the turnstile: after its job ran, gave up its
// turn, or never reached it. Each ticket is retired exactly once, in any
// order; the turnstile advances past every consecutively retired ticket.
func (g *Gate) Retire(ticket int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retired[ticket] = true
	for g.retired[g.serving] {
		delete(g.retired, g.serving)
		g.serving++
	}
	if g.turn != nil {
		close(g.turn)
		g.turn = nil
	}
}

// JobDone drops a terminal job's active reference. A bound job's record
// calls it exactly once, at its first terminal transition and before it
// publishes that state, so a client that streams on that state is
// admitted; a job refused after Bind calls it itself.
func (g *Gate) JobDone() {
	g.mu.Lock()
	g.active--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Ran records that a job actually executed on the dataset.
func (g *Gate) Ran() {
	g.mu.Lock()
	g.jobsRun++
	g.mu.Unlock()
}

// StartStream admits an upload or download while the dataset is alive and
// not being handed off. A shared dataset also refuses while a job is
// queued or running on it; a private entry's job has already vetted the
// stream (see Job.Upload and Job.openOutput).
func (g *Gate) StartStream() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return g.errGone()
	}
	if g.active > 0 && !g.private {
		return &httpError{http.StatusConflict, "dataset " + g.id + " has active jobs: wait for them before streaming data"}
	}
	if g.handoff {
		return g.errHandoff()
	}
	g.streams++
	return nil
}

func (g *Gate) gate() *Gate { return g }

// idle reports whether no stream is in flight.
func (g *Gate) idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.streams == 0
}

// waitIdle blocks until no stream is in flight.
func (g *Gate) waitIdle() {
	g.mu.Lock()
	for g.streams > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// errHandoff is the wrong-state error for calls racing a handoff; 503
// marks it transient, since the dataset reappears (here or on the
// handoff target) moments later.
func (g *Gate) errHandoff() error {
	return &httpError{http.StatusServiceUnavailable, "dataset " + g.id + " is being handed off to another node"}
}

// beginHandoff closes both planes for a replica transfer: no new job may
// bind and no new stream may start until finishHandoff. It holds a stream
// slot so deletion drains behind it like behind any data-plane user.
func (g *Gate) beginHandoff() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return g.errGone()
	}
	if g.active > 0 {
		return &httpError{http.StatusConflict, "dataset " + g.id + " has active jobs: await them before handing off"}
	}
	if g.streams > 0 {
		return &httpError{http.StatusConflict, "dataset " + g.id + " has an upload or download in flight"}
	}
	if g.handoff {
		return g.errHandoff()
	}
	g.handoff = true
	g.streams++
	return nil
}

// finishHandoff reopens the dataset — or, when deleteLocal is set after a
// successful transfer, atomically releases it so no job can slip in
// between the transfer and the delete. It reports whether the caller now
// owns the storage teardown, exactly like TryRelease.
func (g *Gate) finishHandoff(deleteLocal bool) (owner bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.handoff = false
	g.streams--
	if deleteLocal && !g.released {
		g.released = true
		for g.streams > 0 {
			g.cond.Wait()
		}
		owner = true
	}
	g.cond.Broadcast()
	return owner
}

// EndStream retires an upload's stream, marking the dataset loaded when
// the upload completed successfully.
func (g *Gate) EndStream(uploaded bool) {
	g.mu.Lock()
	g.streams--
	if uploaded {
		g.loaded = true
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// AdoptPart folds in whether one part of the dataset, found on a worker
// when a restarted coordinator adopts it, holds uploaded records: the
// dataset reads loaded only while every part does.
func (g *Gate) AdoptPart(loaded bool) {
	g.mu.Lock()
	g.loaded = g.loaded && loaded
	g.mu.Unlock()
}

// Tail wraps an admitted download's writer. Just before the write that
// delivers the body's last byte, the download stops refusing binds, so a
// client that holds the whole body can chain its next job at once instead
// of racing the handler's return for a 409. That is safe: DumpTo has
// already copied that chunk into its pooled slab, and Dump's read lock
// still holds back a bound job's run until Dump returns (for a striped
// download, on the last stripe's worker). The download is still a stream,
// so deletes, handoffs and Shutdown wait for it; the caller defers End,
// which retires it.
func (g *Gate) Tail(w io.Writer) *TailWriter {
	return &TailWriter{w: w, left: int64(g.cfg.N) * bmmc.RecordBytes, g: g}
}

// TailWriter is a download's writer; see Gate.Tail. Its writes come from
// one goroutine.
type TailWriter struct {
	w      io.Writer
	left   int64 // bytes of the body not yet written
	g      *Gate
	atTail bool // counted in g.tails
}

func (t *TailWriter) Write(p []byte) (int, error) {
	if !t.atTail && int64(len(p)) >= t.left {
		t.g.mu.Lock()
		t.g.tails++
		t.g.mu.Unlock()
		t.atTail = true
	}
	n, err := t.w.Write(p)
	t.left -= int64(n)
	return n, err
}

// End retires the download's stream.
func (t *TailWriter) End() {
	g := t.g
	g.mu.Lock()
	g.streams--
	if t.atTail {
		g.tails--
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Status snapshots the dataset as its wire representation.
func (g *Gate) Status() *DatasetStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	return &DatasetStatus{
		ID:          g.id,
		Config:      g.cfg,
		Backend:     g.backend,
		InputLoaded: g.loaded,
		ActiveJobs:  g.active,
		JobsRun:     g.jobsRun,
		Released:    g.released,
		Created:     g.created,
	}
}

// TryRelease marks the dataset deleted if no job is active, then waits for
// in-flight streams to drain. It returns whether the caller now owns the
// teardown (exactly one caller ever does) — a second delete of an
// already-released dataset is a successful no-op.
func (g *Gate) TryRelease() (owner bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return false, nil
	}
	if g.active > 0 {
		return false, &httpError{http.StatusConflict, "dataset " + g.id + " has active jobs: cancel or await them before deleting"}
	}
	g.released = true
	for g.streams > 0 {
		g.cond.Wait()
	}
	return true, nil
}

// Upload replaces the dataset's records with N records from r in the
// 16-byte wire format, once the gate admits the stream. ctx is the
// transport context.
func (d *dsEntry) Upload(ctx context.Context, r io.Reader) error {
	return upload(ctx, d, r)
}

// Load replaces the entry's records with N records from r, once the
// gate has admitted the upload.
func (d *dsEntry) Load(ctx context.Context, r io.Reader) error {
	if err := d.ds.Load(ctx, countReader{r, d.bytes.With("in")}); err != nil {
		return loadError("loading dataset input", err)
	}
	return nil
}

// Dump writes the entry's records to w, once the gate has admitted the
// download.
func (d *dsEntry) Dump(ctx context.Context, w io.Writer) error {
	return d.ds.Dump(ctx, countWriter{w, d.bytes.With("out")})
}

// countReader counts bytes streamed in through the data plane.
type countReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(float64(n))
	return n, err
}

// countWriter counts bytes streamed out through the data plane.
type countWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(float64(n))
	return n, err
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
	return d.download(ctx, w, d.StartStream)
}

// download admits a stream with open, then dumps the records to w.
func (d *dsEntry) download(ctx context.Context, w io.Writer, open func() error) error {
	if err := open(); err != nil {
		return err
	}
	return dump(ctx, d, w)
}

// dump writes d's records to w once a download is admitted, and retires
// the stream. Just before the last byte the download stops refusing jobs
// on d (see Gate.Tail).
func dump(ctx context.Context, d LocalDataset, w io.Writer) error {
	tw := d.gate().Tail(w)
	defer tw.End()
	return d.Dump(ctx, tw)
}
