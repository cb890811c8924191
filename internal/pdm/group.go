package pdm

import "sort"

// Grouped parallel I/O: the engine's pass runner knows a whole memoryload's
// operations at once (the M/BD striped reads of a load, or an MLD pass's
// M/BD independent write waves), so instead of issuing them one at a time it
// hands the group to the System, which regroups the blocks per disk,
// coalesces runs of consecutive physical blocks, and moves each run as one
// backend transfer — a single pread/pwrite on file-backed disks instead of
// one syscall per block. A single parallel I/O is a group of one wave, whose
// blocks move straight between their frames and the backend.
//
// Grouping is strictly a wall-clock optimization, like pipelining and
// worker sharding: the model's accounting is byte-identical to issuing the
// operations individually. Every operation is validated up front, counted
// as its own parallel I/O, and traced in group order. Any shape the
// regrouping cannot reproduce faithfully — a frame reused across the
// group's operations, or a write landing twice on one block, both
// order-dependent — is served wave by wave instead.
//
// Error paths match the wave-by-wave reference too: when a coalesced
// transfer fails — a flaky disk, a torn run that moved only a prefix — the
// group replays wave by wave from scratch. Reads are idempotent and writes
// re-send the same bytes from the unchanged buffer frames, so the replay is
// safe; it counts exactly the waves that complete before its own failure
// (no double-count — the failed coalesced attempt counted nothing) and lets
// transient faults that spare the one-block transfers recover entirely.
// Validation errors surface before any transfer and count nothing.

// ParallelReadGroup performs the given sequence of parallel reads into buf,
// equivalent in records, counts, and trace to performing them one at a time
// in order.
//
// Distinct goroutines may issue I/O on distinct buffers concurrently (e.g.
// a prefetch read overlapping an in-flight write): the backend serializes
// per disk, and the counters and trace observer are updated atomically
// per operation.
func (s *System) ParallelReadGroup(p Portion, group [][]BlockIO, buf *Buffer) error {
	return s.parallelIO(IORead, p, group, buf)
}

// ParallelWriteGroup performs the given sequence of parallel writes from
// buf, equivalent in records, counts, and trace to performing them one at a
// time in order.
func (s *System) ParallelWriteGroup(p Portion, group [][]BlockIO, buf *Buffer) error {
	return s.parallelIO(IOWrite, p, group, buf)
}

// parallelIO is the one implementation behind every counted transfer, reads
// and writes alike: it moves a group of parallel I/Os between portion p and
// buf, coalesced when the group has several waves, and counts and traces
// each wave only once the backend has moved it.
func (s *System) parallelIO(kind IOKind, p Portion, group [][]BlockIO, buf *Buffer) error {
	for _, ios := range group {
		if err := s.validate(p, ios); err != nil {
			return err
		}
	}
	bs := s.cfg.B
	var xfers []RangeXfer
	var runs []groupRun
	switch len(group) {
	case 0:
		return nil
	case 1:
		// validate ruled out a repeated disk or frame within the wave, so
		// every block is an independent run of one, moved in place. The
		// batch lives in the buffer's scratch slice — safe because a Buffer
		// never serves two parallel I/Os concurrently (its frames would
		// race first) — keeping the per-operation hot path allocation-free.
		ios := group[0]
		if cap(buf.xbuf) < len(ios) {
			buf.xbuf = make([]RangeXfer, s.cfg.D)
		}
		xfers = buf.xbuf[:len(ios)]
		for i, io := range ios {
			xfers[i] = RangeXfer{Disk: io.Disk, Block: s.physBlock(p, io.Block), Data: buf.Frame(io.Frame)}
		}
	default:
		perDisk, total := s.groupRefs(kind, p, group)
		if perDisk == nil {
			return s.replay(kind, p, group, buf)
		}
		slab := AcquireSlab(total * bs)
		defer ReleaseSlab(slab)
		xfers, runs = buildRuns(perDisk, slab, bs, buf)
		if kind == IOWrite {
			copyRuns(kind, runs, bs, buf)
		}
	}
	if err := s.transfer(kind, xfers); err != nil {
		if len(group) == 1 {
			return err
		}
		return s.replay(kind, p, group, buf)
	}
	if kind == IORead {
		copyRuns(kind, runs, bs, buf)
	}
	s.account(kind, p, group)
	return nil
}

// replay performs the group wave by wave, each wave a group of one; it
// stops at the first failing wave with exactly the earlier waves counted.
func (s *System) replay(kind IOKind, p Portion, group [][]BlockIO, buf *Buffer) error {
	for w := range group {
		if err := s.parallelIO(kind, p, group[w:w+1], buf); err != nil {
			return err
		}
	}
	return nil
}

// rangeRef locates one block of a grouped parallel I/O: its physical block
// number on its disk, and the buffer frame it moves to or from.
type rangeRef struct {
	phys, frame int
}

// groupRefs regroups the group's blocks per disk, sorted by physical block,
// and counts them. A nil result reports a hazard that makes the group's
// outcome depend on operation order — a frame reused across operations, or
// (for writes) a block written more than once — so the caller must serve
// the group wave by wave.
func (s *System) groupRefs(kind IOKind, p Portion, group [][]BlockIO) ([][]rangeRef, int) {
	total := 0
	perDisk := make([][]rangeRef, s.cfg.D)
	frameSeen := make([]bool, s.cfg.Frames())
	for _, ios := range group {
		for _, io := range ios {
			if frameSeen[io.Frame] {
				return nil, 0
			}
			frameSeen[io.Frame] = true
			perDisk[io.Disk] = append(perDisk[io.Disk], rangeRef{phys: s.physBlock(p, io.Block), frame: io.Frame})
			total++
		}
	}
	for _, refs := range perDisk {
		sort.Slice(refs, func(i, j int) bool { return refs[i].phys < refs[j].phys })
		if kind == IOWrite {
			for i := 1; i < len(refs); i++ {
				if refs[i].phys == refs[i-1].phys {
					return nil, 0
				}
			}
		}
	}
	return perDisk, total
}

// groupRun is one coalesced multi-block run: the operations' refs in block
// order and the contiguous scratch span standing in for their frames.
type groupRun struct {
	refs []rangeRef
	data []Record
}

// buildRuns walks each disk's sorted refs and splits them into runs of
// consecutive physical blocks. Multi-block runs are backed by disjoint
// spans of slab and returned for copyRuns; single-block runs transfer
// directly against their buffer frame.
func buildRuns(perDisk [][]rangeRef, slab []Record, bs int, buf *Buffer) ([]RangeXfer, []groupRun) {
	xfers := make([]RangeXfer, 0, len(perDisk))
	var runs []groupRun
	used := 0
	for disk, refs := range perDisk {
		for i := 0; i < len(refs); {
			j := i + 1
			for j < len(refs) && refs[j].phys == refs[j-1].phys+1 {
				j++
			}
			n := j - i
			data := buf.Frame(refs[i].frame)
			if n > 1 {
				data = slab[used*bs : (used+n)*bs]
				used += n
				runs = append(runs, groupRun{refs: refs[i:j], data: data})
			}
			xfers = append(xfers, RangeXfer{Disk: disk, Block: refs[i].phys, Data: data})
			i = j
		}
	}
	return xfers, runs
}

// copyRuns moves records between each multi-block run's scratch span and
// the frames its blocks address: into the span before a write, out of it
// after a read.
func copyRuns(kind IOKind, runs []groupRun, bs int, buf *Buffer) {
	for _, r := range runs {
		for k, ref := range r.refs {
			span, frame := r.data[k*bs:(k+1)*bs], buf.Frame(ref.frame)
			if kind == IOWrite {
				copy(span, frame)
			} else {
				copy(frame, span)
			}
		}
	}
}

// account counts and traces the group's operations in order, exactly as
// performing them one at a time would, under one acquisition of the lock.
func (s *System) account(kind IOKind, p Portion, group [][]BlockIO) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ios := range group {
		if kind == IORead {
			for _, io := range ios {
				s.stats.PerDiskReads[io.Disk]++
			}
			s.stats.ParallelReads++
			s.stats.BlocksRead += len(ios)
		} else {
			for _, io := range ios {
				s.stats.PerDiskWrites[io.Disk]++
			}
			s.stats.ParallelWrites++
			s.stats.BlocksWritten += len(ios)
		}
		s.notifyLocked(kind, p, ios)
	}
}
