// Package service turns the library into a long-lived permutation daemon:
// a job manager that admits, queues, and executes BMMC permutation jobs on
// a bounded worker pool, plus an HTTP/JSON control plane and a streaming
// data plane in the library's 16-byte record wire format. cmd/bmmcd wires
// the package to flags and signals; package client wraps the HTTP surface
// for Go callers.
//
// The parallel disk model is naturally multi-tenant — independent jobs
// contend for the same D disks — so the daemon owns what individual
// library consumers cannot: admission control (a FIFO queue with
// backpressure), storage isolation, per-job I/O accounting, and a shared
// plan cache so repeated permutations across tenants are factorized once.
//
// Every job runs on a dataset entry: a Dataset on provisioned storage
// (RAM, a file directory, or sharded directories). A job submitted with a
// dataset handle runs on that shared entry, chained with the dataset's
// other jobs. A standalone job runs on a private entry of its own: the
// dataset table never lists it, and releasing the job retires it. A done
// job's file or sharded storage then waits in a pool of spares for the
// next standalone job of its kind and geometry, which takes it over
// instead of provisioning; any other storage is deleted. A private entry
// for an await-input job skips the canonical fill, since the job cannot
// run before its upload replaces every record.
//
// A job moves through the states queued -> planning -> running ->
// done/failed/canceled. Planning in the paper's sense (classification and
// GF(2) factorization) happens at submit time, through the manager's
// shared plan cache, so the POST response can quote the plan summary; the
// planning state marks the short window where a worker has claimed the job,
// drained any in-flight input upload, and is binding the prepared plan for
// execution. Input may be uploaded only while the job is queued; output may
// be downloaded once it is done.
package service

import (
	"time"

	bmmc "repro"
	"repro/internal/obs"
)

// State is a job's position in its lifecycle.
type State string

// The job states, in order. Queued jobs wait in the FIFO admission queue
// and may receive input uploads; planning and running jobs are owned by a
// worker; done, failed, and canceled are terminal.
const (
	StateQueued   State = "queued"
	StatePlanning State = "planning"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final: no further transitions and
// no further events.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Backend kinds a job or dataset may request. The daemon provisions the
// storage for a standalone job and destroys it when the job is released.
const (
	BackendMem     = "mem"     // RAM-backed disks (the default)
	BackendFile    = "file"    // one file per disk in a job-private directory
	BackendSharded = "sharded" // disk files spread round-robin over shard directories
)

// SubmitRequest is the body of POST /v1/jobs: the machine geometry, the
// permutation in the MarshalPermutation text format, and the storage the
// job runs on — either a per-job backend kind provisioned for this job
// alone, or (via Dataset) a handle on a shared daemon dataset so chained
// permutations run back-to-back on the same storage with zero re-upload.
type SubmitRequest struct {
	Config  bmmc.Config `json:"config,omitempty"`
	Perm    string      `json:"perm"`
	Backend string      `json:"backend,omitempty"` // "mem" (default), "file", "sharded"
	Fuse    *bool       `json:"fuse,omitempty"`    // pass fusion; nil means on
	// Dataset names a dataset created via POST /v1/datasets. The job then
	// executes on that dataset's storage — input is whatever the dataset
	// currently holds, output stays on the dataset for the next job or a
	// final download — and jobs referencing one dataset run in submission
	// order. Config may be omitted (the dataset's geometry is inherited)
	// and Backend/AwaitInput must be: the dataset owns storage and data.
	Dataset string `json:"dataset,omitempty"`
	// AwaitInput holds the job out of the execution queue — while still
	// occupying an admission slot — until a PUT /input upload of all N
	// records completes, so workers never race ahead of the data plane.
	// The job's storage skips the canonical fill (a reused spare keeps
	// the previous job's records until the upload replaces them), since
	// nothing runs on it or downloads from it before that upload. The daemon
	// cancels the job if no upload lands within its input-wait deadline,
	// so idle submitters cannot hold admission slots forever. Without
	// AwaitInput the job is runnable immediately and permutes the
	// canonical records (or whatever an upload managed to land while it
	// sat queued).
	AwaitInput bool `json:"await_input,omitempty"`
}

// CreateDatasetRequest is the body of POST /v1/datasets: the machine
// geometry and the storage kind the dataset's simulated disks live on.
// The dataset is created holding the canonical records MakeRecord(0..N-1);
// replace them with PUT /v1/datasets/{id}/input.
type CreateDatasetRequest struct {
	Config  bmmc.Config `json:"config"`
	Backend string      `json:"backend,omitempty"` // "mem" (default), "file", "sharded"
	// ID, when set, names the dataset instead of letting the daemon
	// generate an id — the cluster coordinator uses this so a dataset
	// keeps one stable name no matter which worker currently holds it.
	// Creating over a live id is refused (409); re-creating a deleted id
	// is allowed, since a rebalance legitimately moves a dataset away and
	// later back.
	ID string `json:"id,omitempty"`
	// Stripes, when > 1 on a request to the cluster coordinator, spreads
	// the dataset over that many workers as contiguous record ranges. A
	// single daemon refuses it: one node holds whole datasets only.
	Stripes int `json:"stripes,omitempty"`
}

// HandoffRequest is the body of POST /v1/datasets/{id}/handoff: replicate
// the dataset to the daemon at Target (base URL) by replaying the 16-byte
// record wire format, optionally under a different id there, and
// optionally delete the local copy once the replica is durable — the
// cluster rebalance primitive.
type HandoffRequest struct {
	Target string `json:"target"`           // receiving daemon's base URL
	ID     string `json:"id,omitempty"`     // id at the target (default: same id)
	Delete bool   `json:"delete,omitempty"` // drop the local copy after success
}

// DatasetStatus is the wire rendering of one dataset: GET
// /v1/datasets/{id}. ActiveJobs counts jobs bound to the dataset that have
// not reached a terminal state; while it is nonzero the data plane is
// closed (409) and DELETE is refused (409).
type DatasetStatus struct {
	ID          string      `json:"id"`
	Config      bmmc.Config `json:"config"`
	Backend     string      `json:"backend"`
	InputLoaded bool        `json:"input_loaded"`       // user records uploaded (else canonical)
	ActiveJobs  int         `json:"active_jobs"`        // bound jobs not yet terminal
	JobsRun     int         `json:"jobs_run"`           // jobs that executed on this dataset
	Released    bool        `json:"released,omitempty"` // deleted; storage reclaimed
	Created     time.Time   `json:"created"`
}

// PassSummary is one one-pass permutation within a PlanSummary.
type PassSummary struct {
	Kind string `json:"kind"` // MRC, MLD, or inverse-MLD
}

// PlanSummary is the machine-readable rendering of a bmmc.Plan: the class
// dispatch, the (possibly fused) pass structure, and the exact cost next
// to the paper's bounds. It is the summary POST /v1/jobs returns and the
// struct bmmcplan -json emits, so service consumers and offline tooling
// read the same schema.
type PlanSummary struct {
	Class                string        `json:"class"`
	Bits                 int           `json:"bits"`
	RankGamma            int           `json:"rank_gamma"`
	PassCount            int           `json:"pass_count"`
	Passes               []PassSummary `json:"passes,omitempty"`
	FusedFrom            int           `json:"fused_from,omitempty"` // pass count before fusion, 0 if never fused
	CostIOs              int           `json:"cost_ios"`
	LowerBoundIOs        float64       `json:"lower_bound_ios"`         // Theorem 3
	RefinedLowerBoundIOs float64       `json:"refined_lower_bound_ios"` // Section 7
	UpperBoundIOs        int           `json:"upper_bound_ios"`         // Theorem 21
}

// Summarize renders a prepared plan as the wire summary.
func Summarize(pl *bmmc.Plan) *PlanSummary {
	s := &PlanSummary{
		Class:                pl.Class().String(),
		Bits:                 pl.Permutation().Bits(),
		RankGamma:            pl.RankGamma(),
		PassCount:            pl.PassCount(),
		FusedFrom:            pl.FusedFrom(),
		CostIOs:              pl.CostIOs(),
		LowerBoundIOs:        pl.LowerBoundIOs(),
		RefinedLowerBoundIOs: bmmc.RefinedLowerBoundIOs(pl.Geometry(), pl.RankGamma()),
		UpperBoundIOs:        pl.UpperBoundIOs(),
	}
	for _, pass := range pl.Passes() {
		s.Passes = append(s.Passes, PassSummary{Kind: pass.Kind.String()})
	}
	return s
}

// Progress is a job's most recent pass-runner position: memoryload Load of
// Loads within pass Pass of Passes, running the Kind algorithm.
type Progress struct {
	Pass   int    `json:"pass"`
	Passes int    `json:"passes"`
	Kind   string `json:"kind"`
	Load   int    `json:"load"`
	Loads  int    `json:"loads"`
}

// RunReport is the measured outcome of a completed job: the executed pass
// count and the parallel-I/O statistics of the job's private disk system,
// exactly what a direct Engine.Execute of the same plan would measure.
type RunReport struct {
	Passes         int  `json:"passes"`
	ParallelIOs    int  `json:"parallel_ios"`
	ParallelReads  int  `json:"parallel_reads"`
	ParallelWrites int  `json:"parallel_writes"`
	BlocksRead     int  `json:"blocks_read"`
	BlocksWritten  int  `json:"blocks_written"`
	PlanShared     bool `json:"plan_shared"` // plan came from the daemon's shared cache
}

// JobStatus is the wire rendering of one job: GET /v1/jobs/{id}.
type JobStatus struct {
	ID          string       `json:"id"`
	State       State        `json:"state"`
	Error       string       `json:"error,omitempty"`
	Config      bmmc.Config  `json:"config"`
	Backend     string       `json:"backend"`
	Dataset     string       `json:"dataset,omitempty"` // shared dataset the job runs on
	Plan        *PlanSummary `json:"plan"`
	InputLoaded bool         `json:"input_loaded"`       // user records uploaded (else canonical)
	Released    bool         `json:"released,omitempty"` // storage reclaimed or pooled; output gone
	Progress    *Progress    `json:"progress,omitempty"` // last reported pass position
	Report      *RunReport   `json:"report,omitempty"`   // set when done
	Submitted   time.Time    `json:"submitted"`
	Started     *time.Time   `json:"started,omitempty"`  // claimed by a worker
	Finished    *time.Time   `json:"finished,omitempty"` // reached a terminal state
}

// Metrics is the daemon-wide gauge set: GET /v1/metrics. Aggregate I/O
// counters sum the per-job disk statistics of every job that reached a
// terminal state, so they equal what the same sequence of direct
// Engine.Execute calls would have measured.
type Metrics struct {
	JobsSubmitted int `json:"jobs_submitted"`
	JobsQueued    int `json:"jobs_queued"`
	JobsPlanning  int `json:"jobs_planning"`
	JobsRunning   int `json:"jobs_running"`
	JobsDone      int `json:"jobs_done"`
	JobsFailed    int `json:"jobs_failed"`
	JobsCanceled  int `json:"jobs_canceled"`

	QueueDepth    int `json:"queue_depth"`    // jobs waiting in the admission queue
	QueueCapacity int `json:"queue_capacity"` // admission queue bound (backpressure beyond it)
	Workers       int `json:"worker_pool"`    // execution worker pool size (cluster: summed over nodes; "workers" there is the per-node array)

	DatasetsCreated int `json:"datasets_created"` // datasets ever created
	DatasetsActive  int `json:"datasets_active"`  // datasets not yet deleted
	DatasetJobsRun  int `json:"dataset_jobs_run"` // jobs executed via dataset handles

	Passes         int `json:"passes"`          // aggregate executed passes
	ParallelIOs    int `json:"parallel_ios"`    // aggregate parallel I/Os
	ParallelReads  int `json:"parallel_reads"`  // aggregate parallel read operations
	ParallelWrites int `json:"parallel_writes"` // aggregate parallel write operations

	PlanCacheHits   int     `json:"plan_cache_hits"`
	PlanCacheMisses int     `json:"plan_cache_misses"`
	PlanCacheSize   int     `json:"plan_cache_size"`
	PlanCacheRate   float64 `json:"plan_cache_hit_rate"` // hits / (hits + misses), 0 when unused
}

// CountJob tallies one job in state s: as submitted, and under its state.
func (m *Metrics) CountJob(s State) {
	m.JobsSubmitted++
	switch s {
	case StateQueued:
		m.JobsQueued++
	case StatePlanning:
		m.JobsPlanning++
	case StateRunning:
		m.JobsRunning++
	case StateDone:
		m.JobsDone++
	case StateFailed:
		m.JobsFailed++
	case StateCanceled:
		m.JobsCanceled++
	}
}

// JobTrace is the wire rendering of a job's span ring: GET
// /v1/jobs/{id}/trace. Spans arrive in completion order; Dropped counts
// spans evicted from the bounded ring. For a striped cluster job the
// coordinator stitches every worker sub-job's spans under the striped
// job's trace id, stamping each span's Worker/JobID.
type JobTrace struct {
	TraceID string     `json:"trace_id"`
	JobID   string     `json:"job_id"`
	Dropped int        `json:"dropped,omitempty"`
	Spans   []obs.Span `json:"spans"`
}

// EventType discriminates the stream events of GET /v1/jobs/{id}/events.
type EventType string

const (
	// EventState announces a state transition (or, as the first event of a
	// subscription, the job's current state).
	EventState EventType = "state"
	// EventProgress reports a completed memoryload.
	EventProgress EventType = "progress"
	// EventSpan summarizes a completed pass as its trace span — the SSE
	// rendering of the per-pass entries in GET /v1/jobs/{id}/trace.
	EventSpan EventType = "span"
)

// Event is one SSE message on a job's event stream. Progress events may be
// dropped for slow consumers; state and span events are always delivered,
// and the stream ends after the terminal state event.
type Event struct {
	Type     EventType `json:"type"`
	JobID    string    `json:"job_id"`
	State    State     `json:"state,omitempty"`
	Error    string    `json:"error,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	Span     *obs.Span `json:"span,omitempty"`
}
