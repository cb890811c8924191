package pdm

import (
	"fmt"
	"strings"
)

// IOKind distinguishes reads from writes in a trace.
type IOKind int

const (
	// IORead is a parallel read operation.
	IORead IOKind = iota
	// IOWrite is a parallel write operation.
	IOWrite
)

func (k IOKind) String() string {
	if k == IORead {
		return "R"
	}
	return "W"
}

// TraceEntry records one parallel I/O operation: its kind and the per-disk
// block transfers.
type TraceEntry struct {
	Seq  int // operation sequence number, from 0
	Kind IOKind
	IOs  []BlockIO
}

// IsStriped reports whether the operation touched all D disks at the same
// block position — the striped-I/O shape.
func (e TraceEntry) IsStriped(d int) bool {
	if len(e.IOs) != d {
		return false
	}
	for _, io := range e.IOs {
		if io.Block != e.IOs[0].Block {
			return false
		}
	}
	return true
}

func (e TraceEntry) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%4d %s ", e.Seq, e.Kind)
	for i, io := range e.IOs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "d%d:b%d", io.Disk, io.Block)
	}
	return sb.String()
}

// Observer receives every successful parallel I/O. Set one with
// System.SetObserver; a nil observer disables tracing.
type Observer func(TraceEntry)

// SetObserver installs fn to be called after every successful parallel
// read or write with a copy of the operation's transfers. When operations
// overlap (pipelined prefetch), fn is still invoked serially, one operation
// at a time, in the order the operations completed. fn runs with the
// system's accounting lock held, so it must not call Stats, ResetStats, or
// SetObserver itself.
func (s *System) SetObserver(fn Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

// notifyLocked emits a trace entry; the caller must hold s.mu so that the
// sequence number and the observer invocation stay consistent under
// overlapping operations.
func (s *System) notifyLocked(kind IOKind, ios []BlockIO) {
	if s.observer == nil {
		return
	}
	cp := make([]BlockIO, len(ios))
	copy(cp, ios)
	s.observer(TraceEntry{Seq: s.stats.ParallelIOs() - 1, Kind: kind, IOs: cp})
}

// Trace is a convenience Observer that accumulates entries.
type Trace struct {
	Entries []TraceEntry
}

// Attach installs the trace on sys and returns it.
func (t *Trace) Attach(sys *System) *Trace {
	sys.SetObserver(func(e TraceEntry) { t.Entries = append(t.Entries, e) })
	return t
}

// Reads returns the read entries.
func (t *Trace) Reads() []TraceEntry { return t.filter(IORead) }

// Writes returns the write entries.
func (t *Trace) Writes() []TraceEntry { return t.filter(IOWrite) }

func (t *Trace) filter(k IOKind) []TraceEntry {
	var out []TraceEntry
	for _, e := range t.Entries {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// AllStriped reports whether every entry of kind k is striped across d
// disks.
func (t *Trace) AllStriped(k IOKind, d int) bool {
	for _, e := range t.filter(k) {
		if !e.IsStriped(d) {
			return false
		}
	}
	return true
}

func (t *Trace) String() string {
	lines := make([]string, len(t.Entries))
	for i, e := range t.Entries {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}
