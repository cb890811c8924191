package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	bmmc "repro"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pdm"
)

// Defaults for ManagerConfig zero values.
const (
	DefaultWorkers          = 2
	DefaultQueueDepth       = 16
	DefaultShards           = 2
	DefaultPlanCacheEntries = 64
	DefaultInputWait        = 2 * time.Minute
)

// ManagerConfig sizes the job manager. The zero value is usable: two
// workers, a 16-job admission queue, storage under a private temporary
// directory, and a 64-entry shared plan cache.
type ManagerConfig struct {
	// Workers is the bounded worker pool size — the number of jobs
	// executing concurrently, and therefore the daemon's disk concurrency:
	// each running job drives the full parallel I/O of its own D-disk
	// system. Zero selects DefaultWorkers.
	Workers int
	// QueueDepth bounds the admission queue. A submit that would exceed it
	// fails with ErrQueueFull (HTTP 429), the daemon's backpressure signal.
	// Zero selects DefaultQueueDepth.
	QueueDepth int
	// Dir is the base directory for file- and sharded-backend job storage.
	// Empty means a private temporary directory, removed at Shutdown. A
	// released done standalone job may leave its job-<id> directory behind
	// as a spare for the next job of its kind and geometry; Shutdown
	// removes the spares.
	Dir string
	// Shards is how many shard directories a BackendSharded job spreads its
	// disks over. Zero selects DefaultShards.
	Shards int
	// Seed drives job-id generation (ids are sequence-plus-nonce, so the
	// sequence stays unique regardless of the seed).
	Seed int64
	// PlanCacheEntries bounds the shared plan cache (LRU eviction). Zero
	// selects DefaultPlanCacheEntries; negative disables sharing.
	PlanCacheEntries int
	// InputWait is how long an await-input job may hold its admission slot
	// before any upload completes; past it the job is canceled and the
	// slot freed, so idle submitters cannot wedge the queue for other
	// tenants. Zero selects DefaultInputWait; negative waits forever.
	InputWait time.Duration
	// Logger receives structured lifecycle logs; nil discards them.
	Logger *slog.Logger
	// WrapBackend, when set, wraps every backend this manager provisions
	// (per-job and dataset storage alike) before first use — the seam the
	// chaos suites inject fault and latency adversaries through, for this
	// package's tests and for cluster-level tests that poison one worker's
	// storage. A spare that a later job reuses keeps the wrap of its first
	// provisioning.
	WrapBackend func(kind string, be bmmc.Backend) bmmc.Backend

	// hook, when set by tests, runs inside each job's progress callback
	// after every progress event, in event order — deterministic
	// instrumentation for cancellation and race tests.
	hook func(*Job, bmmc.PassEvent)
	// afterFinish, when set by tests, runs on the worker goroutine once
	// finish has recorded a processed job's terminal state, before its run
	// returns: the window in which a client may already release the job
	// and a new job take its storage.
	afterFinish func(*Job)
}

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity; the HTTP layer renders it as 429 Too Many Requests.
var ErrQueueFull = &httpError{http.StatusTooManyRequests, "job queue full"}

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = &httpError{http.StatusServiceUnavailable, "daemon is shutting down"}

// Manager owns the daemon's job table, the dataset table, the FIFO
// admission queue, the bounded worker pool, the one shared execution
// Engine (and with it the daemon-wide plan cache), and the aggregate
// metrics.
type Manager struct {
	cfg     ManagerConfig
	log     *slog.Logger
	obs     *managerObs
	baseDir string
	ownsDir bool

	queue chan *Job
	quit  chan struct{}
	wg    sync.WaitGroup

	eng *bmmc.Engine // one stateless engine drives every job's dataset

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	order    []string // submission order, for listing
	datasets map[string]*dsEntry
	dsOrder  []string // creation order, for listing
	queueLen int      // reserved admission-queue slots
	seq      int
	rng      *rand.Rand
	// spares are released done standalone jobs' file and sharded storage,
	// oldest first, at most cfg.Workers of them: a standalone job of the
	// same kind and geometry takes one instead of provisioning.
	spares []*dsEntry

	submitted int
	created   int // datasets ever created
	agg       struct {
		passes, ios, reads, writes int
	}
}

// NewManager builds the manager and starts its worker pool.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.PlanCacheEntries == 0 {
		cfg.PlanCacheEntries = DefaultPlanCacheEntries
	}
	if cfg.InputWait == 0 {
		cfg.InputWait = DefaultInputWait
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	m := &Manager{
		cfg:      cfg,
		log:      log,
		queue:    make(chan *Job, cfg.QueueDepth),
		quit:     make(chan struct{}),
		jobs:     make(map[string]*Job),
		datasets: make(map[string]*dsEntry),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		eng:      bmmc.NewEngine(bmmc.WithPlanCache(cfg.PlanCacheEntries)),
	}
	m.baseDir = cfg.Dir
	if m.baseDir == "" {
		dir, err := os.MkdirTemp("", "bmmcd-")
		if err != nil {
			return nil, fmt.Errorf("service: creating storage dir: %w", err)
		}
		m.baseDir, m.ownsDir = dir, true
	} else if err := os.MkdirAll(m.baseDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating storage dir: %w", err)
	}
	m.obs = newManagerObs(m)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Submit validates, plans (through the shared Engine's plan cache),
// binds the job to its execution target — a freshly provisioned private
// entry, or the shared daemon Dataset named by req.Dataset — and enqueues
// it. It returns the admitted job, whose Plan summary quotes class, pass
// structure, and cost bounds before a single I/O happens, or ErrQueueFull
// when the admission queue is at capacity. Jobs referencing one dataset
// execute in submission order, so chained permutations compose the way
// they were submitted.
func (m *Manager) Submit(req SubmitRequest) (*Job, error) {
	p, err := bmmc.ParsePermutation([]byte(req.Perm))
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	fuse := req.Fuse == nil || *req.Fuse

	var entry *dsEntry
	backend := req.Backend
	cfg := req.Config
	if req.Dataset != "" {
		// Dataset-handle job: the dataset supplies storage and geometry.
		if req.Backend != "" {
			return nil, &httpError{http.StatusBadRequest, "dataset jobs take their storage from the dataset: leave backend empty"}
		}
		if req.AwaitInput {
			return nil, &httpError{http.StatusBadRequest, "dataset jobs take their input from the dataset: await_input is not applicable"}
		}
		var ok bool
		entry, ok = m.Dataset(req.Dataset)
		if !ok {
			return nil, errUnknownDataset(req.Dataset)
		}
		if (cfg != bmmc.Config{}) && cfg != entry.cfg {
			return nil, &httpError{http.StatusBadRequest,
				fmt.Sprintf("request geometry %v does not match dataset %s geometry %v (omit config to inherit it)", cfg, entry.id, entry.cfg)}
		}
		cfg = entry.cfg
	} else {
		if err := cfg.Validate(); err != nil {
			return nil, &httpError{http.StatusBadRequest, err.Error()}
		}
		if backend, err = backendKind(backend); err != nil {
			return nil, err
		}
	}

	pl, err := m.eng.Plan(cfg, p, bmmc.WithFusion(fuse))
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	shared := pl.Cached()

	// Reserve an admission slot before paying for storage provisioning.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if m.queueLen >= m.cfg.QueueDepth {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.queueLen++
	m.seq++
	id := fmt.Sprintf("j%04d-%06x", m.seq, m.rng.Uint32()&0xffffff)
	m.mu.Unlock()

	reused := false
	if entry == nil {
		// A standalone job gets a private entry. An await-input job skips
		// the canonical fill: it cannot run before an upload of all N
		// records overwrites it.
		entry, reused, err = m.jobEntry(id, backend, cfg, !req.AwaitInput)
	}
	// Take an execution-order ticket and an active reference. On a shared
	// dataset no storage is provisioned and no data moves.
	var ticket int
	if err == nil {
		ticket, err = entry.bind()
	}
	if err != nil {
		m.freeSlot()
		return nil, err
	}

	// The job outlives the submitting RPC; its root is canceled by
	// CancelJob or manager shutdown, not by the submitter hanging up.
	//lint:allow ctxio -- job-lifetime root; canceled via CancelJob/Close
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:          id,
		perm:        p,
		fuse:        fuse,
		summary:     Summarize(pl),
		plan:        pl,
		planShared:  shared,
		dsEntry:     entry,
		ticket:      ticket,
		ctx:         ctx,
		cancel:      cancel,
		events:      newBroadcaster(),
		hook:        m.cfg.hook,
		enqueue:     m.enqueue,
		state:       StateQueued,
		pending:     req.AwaitInput,
		inputLoaded: entry.Status().InputLoaded,
		submitted:   time.Now(),
		mobs:        m.obs,
		traceBuf:    obs.NewTraceBuffer(id, 0),
	}

	m.mu.Lock()
	if m.closed { // shutdown raced the binding above
		m.queueLen--
		m.mu.Unlock()
		entry.retire(ticket) // hand the unused ticket through
		entry.jobDone()
		m.release(j)
		return nil, ErrShuttingDown
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.submitted++
	m.mu.Unlock()
	m.obs.jobTransition(j, StateQueued, "") // admission is the first audited transition
	if entry.private {
		m.obs.jobStorage(reused)
	}
	if !req.AwaitInput {
		m.queue <- j // cannot block: a slot was reserved above
	} else if m.cfg.InputWait > 0 {
		// The job is already visible to Cancel/Shutdown, so arm the timer
		// under its lock — and only if nothing canceled it in the window.
		wait := m.cfg.InputWait
		j.mu.Lock()
		if j.state == StateQueued && j.pending {
			j.inputTimer = time.AfterFunc(wait, func() { m.expirePending(j, wait) })
		}
		j.mu.Unlock()
	}
	m.log.Info("job queued", "job", id, "backend", entry.backend, "dataset", req.Dataset,
		"config", cfg.String(), "class", j.summary.Class, "passes", j.summary.PassCount,
		"cost_ios", j.summary.CostIOs, "plan_shared", shared, "await_input", req.AwaitInput,
		"storage_reused", reused)
	return j, nil
}

// freeSlot returns a reserved admission-queue slot.
func (m *Manager) freeSlot() {
	m.mu.Lock()
	m.queueLen--
	m.mu.Unlock()
}

// enqueue hands an await-input job to the workers once its upload lands.
// The job kept its admission reservation, so the send cannot block; after
// Shutdown the send is skipped (the job was already canceled and will be
// released by the drain).
func (m *Manager) enqueue(j *Job) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	m.queue <- j
}

// backendKind vets a requested storage kind; empty selects BackendMem.
func backendKind(kind string) (string, error) {
	switch kind {
	case "":
		return BackendMem, nil
	case BackendMem, BackendFile, BackendSharded:
		return kind, nil
	}
	return "", &httpError{http.StatusBadRequest, fmt.Sprintf("unknown backend %q (want mem, file, or sharded)", kind)}
}

// provision builds the entry for a shared dataset or, when private, for
// one standalone job: storage of the given kind, under a uniquely named
// directory for file-backed kinds, opened as a dataset holding the
// canonical records — or, without fill, nothing until an upload lands.
// Every backend is wrapped with the timing instrumentation outermost —
// after any WrapBackend chaos adversary — so the latency histograms
// measure the full storage path a job actually experiences; the entry's
// sink routes the instrumented samples to whichever job runs on it.
func (m *Manager) provision(id, kind string, cfg bmmc.Config, private, fill bool) (*dsEntry, error) {
	d := newDSEntry(id, kind, cfg, private)
	var be bmmc.Backend
	var err error
	if kind == BackendMem {
		be = bmmc.MemBackend()
	} else {
		name := "ds-" + id
		if private {
			name = "job-" + id
		}
		d.dir = filepath.Join(m.baseDir, name)
		dirs := []string{d.dir}
		if kind == BackendSharded {
			dirs = make([]string, m.cfg.Shards)
			for i := range dirs {
				dirs[i] = filepath.Join(d.dir, fmt.Sprintf("shard-%02d", i))
			}
		}
		for _, dir := range dirs {
			if err = os.MkdirAll(dir, 0o755); err != nil {
				break
			}
		}
		be = bmmc.ShardedBackend(dirs...)
	}
	if err == nil {
		if m.cfg.WrapBackend != nil {
			be = m.cfg.WrapBackend(kind, be)
		}
		be = pdm.InstrumentBackend(be, m.obs.opObserver(d.sink))
		open := bmmc.OpenDataset
		if fill {
			open = bmmc.CreateDataset
		}
		d.ds, err = open(cfg, bmmc.WithBackend(be))
	}
	if err != nil {
		m.teardown(d)
		// A provisioning failure is the daemon's problem (full volume,
		// permissions), not the caller's: surface it as a server error.
		return nil, &httpError{http.StatusInternalServerError, "provisioning storage: " + err.Error()}
	}
	return d, nil
}

// jobEntry builds a standalone job's private entry. When the pool holds a
// spare of the same kind and geometry, the job gets a fresh entry (its own
// turnstile, stream counter and released flag) over the spare's Dataset,
// directory and sink, and the pages its upload and passes store into are
// already allocated and mapped. With fill the reused storage then gets the
// same canonical fill CreateDataset runs; without it the upload replaces
// the whole of the previous job's records before the job can run. Either
// way they are never readable. Otherwise the storage is provisioned.
func (m *Manager) jobEntry(id, kind string, cfg bmmc.Config, fill bool) (d *dsEntry, reused bool, err error) {
	spare := m.takeSpare(kind, cfg)
	if spare == nil {
		d, err = m.provision(id, kind, cfg, true, fill)
		return d, false, err
	}
	d = newDSEntry(id, kind, cfg, true)
	d.ds, d.dir, d.sink = spare.ds, spare.dir, spare.sink
	// The previous job is done, so the fill's io spans belong to no trace.
	d.sink.buf.Store(nil)
	if fill {
		if err := engine.LoadSequential(d.ds.System()); err != nil {
			m.teardown(d)
			return nil, false, &httpError{http.StatusInternalServerError, "filling reused storage: " + err.Error()}
		}
	}
	return d, true, nil
}

// takeSpare removes and returns the newest pooled spare of the given kind
// and geometry, or nil when there is none.
func (m *Manager) takeSpare(kind string, cfg bmmc.Config) *dsEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.spares) - 1; i >= 0; i-- {
		if d := m.spares[i]; d.backend == kind && d.cfg == cfg {
			m.spares = slices.Delete(m.spares, i, i+1)
			return d
		}
	}
	return nil
}

// recycle retires a released private entry's storage, which its caller
// owns. A done job's file or sharded storage goes to the pool of spares,
// and a full pool tears its oldest spare down. Failed and canceled jobs'
// storage (it may sit behind an armed fault adversary), mem storage
// (heap the collector recycles anyway) and anything released once
// Shutdown has begun are torn down.
func (m *Manager) recycle(d *dsEntry, done bool) {
	if !done || d.backend == BackendMem {
		m.teardown(d)
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.teardown(d)
		return
	}
	var evicted *dsEntry
	if len(m.spares) == m.cfg.Workers {
		evicted = m.spares[0]
		m.spares = slices.Delete(m.spares, 0, 1)
	}
	m.spares = append(m.spares, d)
	m.mu.Unlock()
	if evicted != nil {
		m.teardown(evicted)
	}
}

// teardown closes an entry's storage and removes its directory. Every
// path that retires storage ends here, once it alone owns the entry.
func (m *Manager) teardown(d *dsEntry) {
	if d.ds != nil {
		if err := d.ds.Close(); err != nil {
			m.log.Warn("closing storage", "entry", d.id, "err", err)
		}
	}
	if d.dir != "" {
		if err := os.RemoveAll(d.dir); err != nil {
			m.log.Warn("removing storage dir", "entry", d.id, "err", err)
		}
	}
}

// dropEntry deletes an entry: refused with 409 while jobs are bound to
// it, it waits for in-flight streams to drain and then tears the storage
// down. Dropping an already-deleted entry is a no-op.
func (m *Manager) dropEntry(d *dsEntry) error {
	owner, err := d.tryRelease()
	if owner {
		m.teardown(d)
	}
	return err
}

// CreateDataset validates, provisions storage, and registers a new shared
// dataset holding the canonical records until an upload replaces them.
func (m *Manager) CreateDataset(req CreateDatasetRequest) (*dsEntry, error) {
	if err := req.Config.Validate(); err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	backend, err := backendKind(req.Backend)
	if err != nil {
		return nil, err
	}
	if req.Stripes > 1 {
		return nil, &httpError{http.StatusBadRequest, "striped datasets exist only behind a cluster coordinator: a single daemon holds whole datasets"}
	}
	if err := validDatasetID(req.ID); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	id := req.ID
	if id == "" {
		m.seq++
		id = fmt.Sprintf("d%04d-%06x", m.seq, m.rng.Uint32()&0xffffff)
	} else if old, ok := m.datasets[id]; ok && !old.Status().Released {
		m.mu.Unlock()
		return nil, &httpError{http.StatusConflict, fmt.Sprintf("dataset %q already exists", id)}
	}
	m.mu.Unlock()

	entry, err := m.provision(id, backend, req.Config, false, true)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	switch old, exists := m.datasets[id]; {
	case m.closed: // shutdown raced the provisioning above
		err = ErrShuttingDown
	case exists && !old.Status().Released: // a same-id create raced us
		err = &httpError{http.StatusConflict, fmt.Sprintf("dataset %q already exists", id)}
	case exists: // re-creating a deleted id: replace, keep its list slot
		m.datasets[id] = entry
	default:
		m.datasets[id] = entry
		m.dsOrder = append(m.dsOrder, id)
	}
	if err == nil {
		m.created++
	}
	m.mu.Unlock()
	if err != nil {
		m.teardown(entry)
		return nil, err
	}
	m.log.Info("dataset created", "dataset", id, "backend", backend, "config", req.Config.String())
	return entry, nil
}

// validDatasetID vets a caller-supplied dataset id: it becomes a path
// segment in URLs and in provisioned directory names, so it is limited to
// a conservative charset.
func validDatasetID(id string) error {
	if id == "" {
		return nil
	}
	if len(id) > 128 {
		return &httpError{http.StatusBadRequest, "dataset id exceeds 128 bytes"}
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return &httpError{http.StatusBadRequest, fmt.Sprintf("dataset id %q: only letters, digits, '-', '_', '.' are allowed", id)}
		}
	}
	return nil
}

// Dataset looks a dataset up by id.
func (m *Manager) Dataset(id string) (*dsEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.datasets[id]
	return d, ok
}

// Datasets returns every dataset in creation order.
func (m *Manager) Datasets() []*dsEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*dsEntry, 0, len(m.dsOrder))
	for _, id := range m.dsOrder {
		out = append(out, m.datasets[id])
	}
	return out
}

// DeleteDataset removes a dataset: refused with 409 while jobs are bound
// to it, waits for in-flight uploads and downloads to drain, then closes
// the storage and removes the provisioned directory. Deleting an
// already-deleted dataset is a no-op; the metadata stays queryable.
func (m *Manager) DeleteDataset(id string) (*dsEntry, error) {
	d, ok := m.Dataset(id)
	if !ok {
		return nil, errUnknownDataset(id)
	}
	if err := m.dropEntry(d); err != nil {
		return nil, err
	}
	m.log.Info("dataset deleted", "dataset", id)
	return d, nil
}

// expirePending cancels an await-input job whose upload never arrived
// within the configured wait, freeing its admission slot and storage. A
// job that became runnable (or was already canceled) is left alone.
func (m *Manager) expirePending(j *Job, wait time.Duration) {
	j.mu.Lock()
	if j.state != StateQueued || !j.pending {
		j.mu.Unlock()
		return
	}
	j.errMsg = fmt.Sprintf("no input received within %v", wait)
	j.setStateLocked(StateCanceled)
	j.pending = false
	j.cancel()
	j.mu.Unlock()
	m.freeSlot()
	m.release(j)
	m.log.Info("await-input job expired", "job", j.id, "wait", wait.String())
}

// Job looks a job up by id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// worker drains the admission queue until Shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case j := <-m.queue:
			m.freeSlot()
			m.run(j)
		}
	}
}

// run drives one dequeued job through planning, execution, and its
// terminal state. A job canceled while queued is only released here —
// never planned, never executed. Jobs first wait for their execution-order
// ticket, so a chain on one dataset runs in submission order no matter how
// many workers race, and always retire the ticket on the way out.
func (m *Manager) run(j *Job) {
	d := j.dsEntry
	j.mu.Lock()
	// A standalone job's upload may still be streaming: claim the job only
	// once its entry is idle, so the input is sealed before planning.
	for j.state == StateQueued && !d.idle() {
		j.mu.Unlock()
		d.waitIdle()
		j.mu.Lock()
	}
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		// Never executed: hand the unused execution ticket through so
		// later jobs on the dataset are not blocked, and release without
		// pinning this worker behind the dataset's running predecessors.
		d.retire(j.ticket)
		m.release(j)
		return
	}
	j.claimed = true
	j.started = time.Now()
	j.setStateLocked(StatePlanning)
	j.mu.Unlock()
	m.obs.queueWait.Observe(j.started.Sub(j.submitted).Seconds())

	// Jobs wait for their execution-order ticket here — after the claim,
	// so a cancellation during the wait still resolves through the ctx
	// check below — and always retire the ticket on the way out.
	d.waitTurn(j.ticket)
	defer d.retire(j.ticket)
	// The job's cost is the delta its run adds to the dataset's counters —
	// snapshot after winning the turnstile, so chained predecessors' I/O is
	// excluded exactly, and so is the I/O of earlier jobs whose storage a
	// private entry reuses. finish always subtracts this snapshot,
	// including on the canceled-before-execution path below.
	j.statsBefore = d.ds.Stats()
	// Per-pass attribution starts from the same snapshot; finish charges
	// any residual I/O past the last pass boundary to the job's counters.
	j.passStartIOs = j.statsBefore.ParallelIOs()
	// Route the backend's io spans into this job's trace for the duration
	// of the run. Jobs on one dataset are serialized by the turnstile
	// above, so the sink has one owner at a time.
	d.sink.buf.Store(j.traceBuf)
	// Clear only this job's buffer: once finish has made a standalone job
	// done, its client may release it before this run returns, and the
	// next job may already run on its storage, sink included.
	defer d.sink.buf.CompareAndSwap(j.traceBuf, nil)

	// The plan itself was prepared at submit time through the shared
	// Engine; the planning state covers claiming the job, sealing its
	// input, and binding the plan for execution.
	if err := j.ctx.Err(); err != nil {
		m.finish(j, nil, err)
		return
	}
	j.mu.Lock()
	j.setStateLocked(StateRunning)
	j.mu.Unlock()
	m.log.Info("job running", "job", j.id, "input_loaded", j.Status().InputLoaded)

	d.ran()
	rep, err := m.eng.Execute(j.ctx, j.plan, d.ds, bmmc.WithProgress(j.onProgress))
	m.finish(j, rep, err)
}

// finish records a processed job's outcome: its terminal state, its run
// report, and its contribution to the aggregate I/O metrics. Jobs that did
// not complete have no output, so their storage is released immediately;
// done jobs keep storage until downloaded and deleted (or Shutdown).
func (m *Manager) finish(j *Job, rep *bmmc.Report, err error) {
	// The job's cost is the delta over the dataset's counters at claim
	// time: exact because jobs on one dataset are serialized by the ticket
	// turnstile, and a private entry runs only its own job (earlier jobs
	// on reused storage ran before the claim).
	stats := j.dsEntry.ds.Stats()
	// Charge any I/O past the last pass-boundary event (a pass aborted by
	// cancellation, or a plan with no progress events) to the pass counter
	// under the last seen kernel, so the job's bmmc_pass_ios total equals
	// its measured parallel-I/O delta exactly.
	if resid := stats.ParallelIOs() - j.passStartIOs; resid > 0 {
		kernel := j.lastKernel
		if kernel == "" {
			kernel = "none"
		}
		m.obs.passIOs.With(j.summary.Class, kernel).Add(float64(resid))
	}
	stats.ParallelReads -= j.statsBefore.ParallelReads
	stats.ParallelWrites -= j.statsBefore.ParallelWrites
	stats.BlocksRead -= j.statsBefore.BlocksRead
	stats.BlocksWritten -= j.statsBefore.BlocksWritten
	j.mu.Lock()
	switch {
	case err == nil:
		j.report = &RunReport{
			Passes:         rep.Passes,
			ParallelIOs:    rep.ParallelIOs,
			ParallelReads:  stats.ParallelReads,
			ParallelWrites: stats.ParallelWrites,
			BlocksRead:     stats.BlocksRead,
			BlocksWritten:  stats.BlocksWritten,
			PlanShared:     j.planShared,
		}
		j.setStateLocked(StateDone)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || j.ctx.Err() != nil:
		j.errMsg = err.Error()
		j.setStateLocked(StateCanceled)
	default:
		j.errMsg = err.Error()
		j.setStateLocked(StateFailed)
	}
	state := j.state
	j.mu.Unlock()

	m.mu.Lock()
	m.agg.ios += stats.ParallelIOs()
	m.agg.reads += stats.ParallelReads
	m.agg.writes += stats.ParallelWrites
	if rep != nil {
		m.agg.passes += rep.Passes
	}
	m.mu.Unlock()

	if state == StateDone {
		// Export the job's theoretical brackets: cumulative Thm 3 lower and
		// Thm 21 upper bounds over completed jobs, so measured/theory stays
		// a one-line PromQL ratio at any aggregation window.
		m.obs.bounds.With("lower").Add(j.summary.LowerBoundIOs)
		m.obs.bounds.With("upper").Add(float64(j.summary.UpperBoundIOs))
		m.log.Info("job done", "job", j.id, "passes", rep.Passes, "parallel_ios", rep.ParallelIOs)
	} else {
		m.log.Info("job finished", "job", j.id, "state", string(state), "err", j.Status().Error)
	}
	// A done standalone job keeps its storage until its output is
	// downloaded and the job released; a dataset job's output lives on
	// the dataset, and a job that did not complete has none.
	if state != StateDone || !j.dsEntry.private {
		m.release(j)
	}
	if m.cfg.afterFinish != nil {
		m.cfg.afterFinish(j)
	}
}

// Cancel stops a job: a queued job goes terminal immediately and is never
// planned; a claimed job's context is canceled so execution aborts between
// memoryloads; a terminal job has its storage released. The job's metadata
// stays queryable in every case.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, ok := m.Job(id)
	if !ok {
		return nil, errUnknownJob(id)
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued && !j.claimed:
		j.errMsg = "canceled while queued"
		j.setStateLocked(StateCanceled)
		wasPending := j.pending
		j.pending = false
		if j.inputTimer != nil {
			j.inputTimer.Stop()
		}
		j.cancel() // aborts any in-flight upload promptly
		j.mu.Unlock()
		m.log.Info("job canceled while queued", "job", id)
		if wasPending {
			// Never handed to the workers: free its admission slot and
			// release its storage here.
			m.freeSlot()
			m.release(j)
		}
		// Otherwise storage is released when a worker dequeues the job (or
		// at Shutdown); the worker sees the terminal state and never plans
		// it.
	case !j.state.Terminal():
		j.cancel()
		j.mu.Unlock()
		m.log.Info("job cancellation requested", "job", id, "state", string(j.State()))
	default:
		j.mu.Unlock()
		m.release(j)
		m.log.Info("terminal job released", "job", id)
	}
	return j, nil
}

// release retires a job's hold on storage and is idempotent. A private
// entry is released once its in-flight upload or downloads drain (the job
// is marked released up front so no new download can start), and its
// storage recycled: pooled as a spare when the job is done, else torn
// down. A shared dataset stays untouched (its lifecycle is
// DeleteDataset's).
func (m *Manager) release(j *Job) {
	j.mu.Lock()
	if j.released {
		j.mu.Unlock()
		return
	}
	j.released = true // openOutput now refuses new downloads
	done := j.state == StateDone
	j.mu.Unlock()
	j.cancel()
	if d := j.dsEntry; d.private {
		// No caller releases a job still counted active on its entry, so
		// tryRelease cannot refuse.
		if owner, _ := d.tryRelease(); owner {
			m.recycle(d, done)
		}
	}
}

// Registry exposes the manager's Prometheus registry; the HTTP layer
// serves it at GET /metrics and the cluster coordinator scrapes it.
func (m *Manager) Registry() *obs.Registry { return m.obs.reg }

// Metrics snapshots the daemon-wide gauges.
func (m *Manager) Metrics() *Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	mt := &Metrics{
		JobsSubmitted: m.submitted,
		QueueDepth:    m.queueLen,
		QueueCapacity: m.cfg.QueueDepth,
		Workers:       m.cfg.Workers,

		Passes:         m.agg.passes,
		ParallelIOs:    m.agg.ios,
		ParallelReads:  m.agg.reads,
		ParallelWrites: m.agg.writes,
	}
	mt.DatasetsCreated = m.created
	for _, d := range m.datasets {
		st := d.Status()
		if !st.Released {
			mt.DatasetsActive++
		}
		mt.DatasetJobsRun += st.JobsRun
	}
	cs := m.eng.CacheStats()
	mt.PlanCacheHits, mt.PlanCacheMisses, mt.PlanCacheSize = cs.Hits, cs.Misses, cs.Size
	if total := cs.Hits + cs.Misses; total > 0 {
		mt.PlanCacheRate = float64(cs.Hits) / float64(total)
	}
	for _, j := range m.jobs {
		switch j.State() {
		case StateQueued:
			mt.JobsQueued++
		case StatePlanning:
			mt.JobsPlanning++
		case StateRunning:
			mt.JobsRunning++
		case StateDone:
			mt.JobsDone++
		case StateFailed:
			mt.JobsFailed++
		case StateCanceled:
			mt.JobsCanceled++
		}
	}
	return mt
}

// Shutdown drains the daemon: no new submissions are admitted, queued jobs
// are canceled, and running jobs get until ctx's deadline to finish before
// their contexts are canceled. All job storage is released and all shared
// datasets are drained (in-flight downloads finish) and removed, and then
// the pooled spares are torn down, before return.
func (m *Manager) Shutdown(ctx context.Context) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	datasets := make([]*dsEntry, 0, len(m.datasets))
	for _, d := range m.datasets {
		datasets = append(datasets, d)
	}
	m.mu.Unlock()

	for _, j := range jobs {
		j.mu.Lock()
		if j.state == StateQueued && !j.claimed {
			j.errMsg = "daemon shutting down"
			j.setStateLocked(StateCanceled)
			j.pending = false
			if j.inputTimer != nil {
				j.inputTimer.Stop()
			}
			j.cancel()
		}
		j.mu.Unlock()
	}
	close(m.quit)

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		m.log.Warn("drain deadline reached; canceling running jobs")
		for _, j := range jobs {
			j.cancel()
		}
		<-done
	}

	for _, j := range jobs {
		m.release(j)
	}
	// Every job is terminal, so each dataset's active count is zero:
	// dropping it only has to wait out in-flight download streams, exactly
	// the way job release drains a private entry.
	for _, d := range datasets {
		m.dropEntry(d)
	}
	// Releases from here on tear down, so the pool only shrinks.
	m.mu.Lock()
	spares := m.spares
	m.spares = nil
	m.mu.Unlock()
	for _, d := range spares {
		m.teardown(d)
	}
	if m.ownsDir {
		os.RemoveAll(m.baseDir)
	}
	m.log.Info("job manager stopped", "jobs_processed", len(jobs), "datasets", len(datasets))
}
