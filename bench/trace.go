package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	bmmc "repro"
	"repro/internal/pdm"
)

// span is one timed interval the benchmark observed at a layer boundary.
// Parent links a span to the one that caused it (0: a root); Job names the
// job it belongs to. Attrs carries counts measured at the same boundary
// (parallel I/Os, bytes, a load's read-wait), so ratios come from where the
// work happened.
type span struct {
	ID     int64
	Parent int64
	Name   string
	Job    string
	Start  time.Time
	End    time.Time
	Attrs  map[string]float64
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps a traced run's spans in memory until the run ends, plus the
// storage counters too frequent to keep as spans. A nil *tracer records
// nothing: untraced runs pay one nil check per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	io     ioCounters

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record keeps a finished span; a zero ID gets a fresh one. It returns the
// span's id.
func (t *tracer) record(s span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanJSON is the on-disk form of a span: times in microseconds since the
// run's trace origin, and self time — the span's duration minus the part of
// it its children cover.
type spanJSON struct {
	ID      int64              `json:"id"`
	Parent  int64              `json:"parent,omitempty"`
	Name    string             `json:"name"`
	Job     string             `json:"job,omitempty"`
	StartUS float64            `json:"start_us"`
	EndUS   float64            `json:"end_us"`
	SelfUS  float64            `json:"self_us"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path, workload string) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	out := struct {
		Workload string     `json:"workload"`
		Origin   time.Time  `json:"origin"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Origin: t.t0, Spans: make([]spanJSON, len(spans))}
	us := func(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }
	for i, s := range spans {
		out.Spans[i] = spanJSON{
			ID: s.ID, Parent: s.Parent, Name: s.Name, Job: s.Job,
			StartUS: us(s.Start), EndUS: us(s.End),
			SelfUS: float64(self[s.ID].Nanoseconds()) / 1e3, Attrs: s.Attrs,
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span id to its duration minus the union of its
// children's intervals clipped to it.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns how much of [start, end] the spans' intervals cover.
func covered(start, end time.Time, spans []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		} else if v.b.After(curB) {
			curB = v.b
		}
	}
	return total + curB.Sub(curA)
}

// ioCounters aggregates every storage call an instrumented backend makes,
// per direction (rd, wr) and field (calls, blocks, bytes, busy ns). Daemon
// and cluster workloads issue thousands of data-plane calls per job, too
// many to keep as spans, so storage is counted here and the per-layer
// metrics difference the totals taken around the timed loop.
type ioCounters [2][ioFields]atomic.Int64

type ioTotals [2][ioFields]int64

const rd, wr = 0, 1

const (
	ioCalls = iota
	ioBlocks
	ioBytes
	ioNS
	ioFields
)

func (c *ioCounters) add(dir int, blocks int, bytes int64, d time.Duration) {
	c[dir][ioCalls].Add(1)
	c[dir][ioBlocks].Add(int64(blocks))
	c[dir][ioBytes].Add(bytes)
	c[dir][ioNS].Add(d.Nanoseconds())
}

// ioTotals reads the storage counters; zero when untraced.
func (t *tracer) ioTotals() (sum ioTotals) {
	if t == nil {
		return sum
	}
	for d := range t.io {
		for f := range t.io[d] {
			sum[d][f] = t.io[d][f].Load()
		}
	}
	return sum
}

func (a ioTotals) sub(b ioTotals) ioTotals {
	for d := range a {
		for f := range a[d] {
			a[d][f] -= b[d][f]
		}
	}
	return a
}

// observeIO returns a pdm.InstrumentBackend observer feeding the storage
// counters of a backend with the given block size.
func (t *tracer) observeIO(blockSize int) pdm.OpObserver {
	return func(s pdm.OpSample) {
		dir := rd
		if isWrite(s.Op) {
			dir = wr
		}
		t.io.add(dir, s.Blocks, int64(s.Blocks*blockSize*bmmc.RecordBytes), s.Dur)
	}
}

func isWrite(op string) bool { return op == "write" || op == "range_write" }

// spanHeader carries the client-side call's span id and job label to the
// server ("<id> <job>"), so the handler span names its parent and job.
const spanHeader = "Bench-Span"

type spanKey struct{}

type spanRef struct {
	id  int64
	job string
}

// withSpan tags ctx with the span of the call it issues.
func withSpan(ctx context.Context, id int64, job string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, job})
}

// spanTransport stamps each outgoing request with its caller's span.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(ref.id, 10)+" "+ref.job)
	return t.base.RoundTrip(r)
}

// call runs one client call of job j as a span named name.
func (t *tracer) call(ctx context.Context, j *job, name string, fn func(context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	id := t.newID()
	start := time.Now()
	err := fn(withSpan(ctx, id, j.label))
	t.record(span{ID: id, Parent: j.span, Name: name, Job: j.label, Start: start, End: time.Now()})
	return err
}

// middleware records every request h serves as a span named
// layer+"."+route, with the request and response body bytes as attrs.
// done, when non-nil, sees each finished span (used to note upload ends).
func (t *tracer) middleware(layer string, h http.Handler, done func(span)) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route, job := classify(r.Method, r.URL.Path)
		var parent int64
		if id, label, ok := strings.Cut(r.Header.Get(spanHeader), " "); ok {
			parent, _ = strconv.ParseInt(id, 10, 64)
			job = label
		}
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		s := span{
			ID: t.newID(), Parent: parent, Name: layer + "." + route, Job: job,
			Start: start, End: time.Now(),
			Attrs: map[string]float64{"bytes": float64(body.n + cw.n)},
		}
		t.record(s)
		if done != nil {
			done(s)
		}
	})
}

// classify names the route of a bmmcd or coordinator request and extracts
// the job or dataset id from its path.
func classify(method, path string) (route, id string) {
	seg := strings.Split(strings.Trim(path, "/"), "/")
	if len(seg) > 0 && seg[0] == "cluster" {
		return "control", ""
	}
	if len(seg) < 2 || seg[0] != "v1" {
		return "metrics", ""
	}
	if len(seg) >= 3 {
		id = seg[2]
	}
	last := seg[len(seg)-1]
	switch {
	case seg[1] == "metrics":
		return "metrics", ""
	case last == "input":
		return "upload", id
	case last == "output":
		return "download", id
	case last == "events":
		return "events", id
	case last == "trace":
		return "trace", id
	case last == "handoff":
		return "handoff", id
	case seg[1] == "jobs" && len(seg) == 2 && method == http.MethodPost:
		return "submit", ""
	case seg[1] == "jobs" && len(seg) == 2:
		return "list", ""
	case seg[1] == "jobs" && method == http.MethodDelete:
		return "delete_job", id
	case seg[1] == "jobs":
		return "status", id
	case method == http.MethodPost:
		return "create_dataset", id
	case method == http.MethodDelete:
		return "delete_dataset", id
	}
	return "dataset_status", id
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// countingWriter counts response bytes and keeps the Flusher the daemon's
// event stream and the coordinator's proxy rely on.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
