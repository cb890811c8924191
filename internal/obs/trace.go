package obs

import (
	"sync"
	"time"
)

// Span names emitted by the stack. "pass" covers one full engine pass,
// "load" one memoryload wave inside a pass, "io" one grouped backend
// batch (a ParallelReadGroup/ParallelWriteGroup issue), and the cluster
// layer adds "stripe" (a per-worker sub-job of a striped job) plus
// "gather"/"route"/"scatter" for the coordinator-relayed exchange path.
const (
	SpanPass    = "pass"
	SpanLoad    = "load"
	SpanIO      = "io"
	SpanStripe  = "stripe"
	SpanGather  = "gather"
	SpanRoute   = "route"
	SpanScatter = "scatter"
)

// Span is one timed event in a job trace. Fields are sparse: a "pass"
// span carries Pass/Kind/Kernel/IOs, a "load" span adds Load, an "io"
// span carries the batch shape (Op/Disks/Blocks/Runs), and stitched
// cluster traces stamp Worker/JobID on every span fetched from a worker.
type Span struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind,omitempty"`   // pass class ("MRC","MLD",...) or io direction
	Kernel string    `json:"kernel,omitempty"` // scatter kernel for pass/load spans
	Pass   int       `json:"pass,omitempty"`   // 1-based pass number
	Load   int       `json:"load,omitempty"`   // 1-based memoryload within the pass
	Op     string    `json:"op,omitempty"`     // io spans: read or write
	Disks  int       `json:"disks,omitempty"`  // io spans: distinct disks touched
	Blocks int       `json:"blocks,omitempty"` // io spans: blocks moved
	Runs   int       `json:"runs,omitempty"`   // io spans: transfers (runs of blocks) issued
	IOs    int       `json:"ios,omitempty"`    // pass spans: counted parallel I/Os
	Worker string    `json:"worker,omitempty"` // stitched traces: owning worker id
	JobID  string    `json:"job,omitempty"`    // stitched traces: worker-local sub-job id
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// DefaultTraceCap bounds a per-job span ring. A pass over N/M memoryloads
// emits one load span and ~2 io spans per wave; 8192 keeps every span for
// any job the test rigs run while capping a pathological job's trace at a
// few MB.
const DefaultTraceCap = 8192

// TraceBuffer is a bounded, concurrency-safe span ring for one job.
// When full, the oldest spans are dropped and counted.
type TraceBuffer struct {
	id  string
	cap int

	mu      sync.Mutex
	spans   []Span
	start   int // ring read position
	dropped int
}

// NewTraceBuffer creates a buffer identified by the job's trace id. A
// non-positive cap falls back to DefaultTraceCap.
func NewTraceBuffer(id string, capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &TraceBuffer{id: id, cap: capacity}
}

// ID returns the trace id.
func (b *TraceBuffer) ID() string { return b.id }

// Add appends a span, evicting the oldest when the ring is full.
func (b *TraceBuffer) Add(s Span) {
	b.mu.Lock()
	if len(b.spans) < b.cap {
		b.spans = append(b.spans, s)
	} else {
		b.spans[b.start] = s
		b.start = (b.start + 1) % b.cap
		b.dropped++
	}
	b.mu.Unlock()
}

// Snapshot returns the retained spans in arrival order plus the count of
// spans evicted so far.
func (b *TraceBuffer) Snapshot() (spans []Span, dropped int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	spans = make([]Span, 0, len(b.spans))
	spans = append(spans, b.spans[b.start:]...)
	spans = append(spans, b.spans[:b.start]...)
	return spans, b.dropped
}
