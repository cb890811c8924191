package pdm

import "time"

// OpSample describes one timed backend batch: the operation shape plus
// its wall-clock duration. Runs counts the batch's transfers and Blocks
// the blocks they moved; PerDisk holds, for each disk touched, the number
// of blocks moved on that disk (used for per-disk latency labels — the
// whole batch shares one duration because it is timed as a unit). A
// counted read group served from block views makes no batch; it is one
// sample all the same, timed over its copies and shaped as the batch that
// staging it would have sent: its blocks, and as Runs its runs of
// consecutive physical blocks per disk.
type OpSample struct {
	Op      string // "read" | "write"
	Blocks  int    // total blocks moved
	Runs    int    // transfers issued
	PerDisk map[int]int
	Start   time.Time
	Dur     time.Duration
}

// End returns the completion time of the sampled call.
func (s OpSample) End() time.Time { return s.Start.Add(s.Dur) }

// OpObserver receives one sample per backend batch. It runs on the
// goroutine that issued the batch (the engine's reader or writer), so it
// must be fast and must not call back into the backend. Stacked
// instrumentation layers share each sample's PerDisk map, so an observer
// must not modify it.
type OpObserver func(OpSample)

// InstrumentBackend wraps be so every successful ReadBlocks and
// WriteBlocks call is timed and reported to obs. A System given the
// wrapper looks through it, and through every InstrumentBackend stacked
// directly beneath it, and times each of its batches itself: every layer's
// observer gets each batch as one sample, so Runs counts the batch's
// transfers under concurrent dispatch too, and a counted read served from
// block views, which calls no layer, still reaches them all. The wrapper
// forwards BlockView to the inner backend, so copy-free reads survive
// instrumentation (the bulk readers' view access is not a counted
// operation and is deliberately untimed).
func InstrumentBackend(be Backend, obs OpObserver) Backend {
	if obs == nil {
		return be
	}
	return &instrumented{be: be, obs: obs}
}

type instrumented struct {
	be  Backend
	obs OpObserver
	bs  int // block size, captured at Open for block accounting
}

func (i *instrumented) Open(numDisks, numBlocks, blockSize int) error {
	i.bs = blockSize
	return i.be.Open(numDisks, numBlocks, blockSize)
}

func (i *instrumented) Sync(block, count int) error { return i.be.Sync(block, count) }
func (i *instrumented) Close() error                { return i.be.Close() }

func (i *instrumented) BlockView(disk, block int) ([]Record, bool) {
	if v, ok := i.be.(BlockViewer); ok {
		return v.BlockView(disk, block)
	}
	return nil, false
}

func (i *instrumented) ReadBlocks(xfers []RangeXfer) error {
	start := time.Now()
	err := i.be.ReadBlocks(xfers)
	if err == nil {
		i.obs(sample(IORead, xfers, i.bs, start))
	}
	return err
}

func (i *instrumented) WriteBlocks(xfers []RangeXfer) error {
	start := time.Now()
	err := i.be.WriteBlocks(xfers)
	if err == nil {
		i.obs(sample(IOWrite, xfers, i.bs, start))
	}
	return err
}

// observedDispatch dispatches one batch of the System and, if it
// succeeds, reports it as one sample.
func (s *System) observedDispatch(kind IOKind, xfers []RangeXfer) error {
	start := time.Now()
	err := s.dispatch(kind, xfers)
	if err == nil {
		s.report(sample(kind, xfers, s.cfg.B, start))
	}
	return err
}

// observedViews serves a read group from block views and, if every block
// had one, reports it as one sample shaped like the batch that staging it
// would have sent: its blocks, its blocks per disk, and as Runs the runs of
// consecutive physical blocks the group forms on each disk.
func (s *System) observedViews(p portion, group [][]BlockIO, buf *Buffer) bool {
	start := time.Now()
	if !s.copyViews(p, group, buf) {
		return false
	}
	smp := OpSample{Op: word(IORead), PerDisk: make(map[int]int, s.cfg.D), Start: start, Dur: time.Since(start)}
	perDisk, total, _ := s.groupRefs(IORead, p, group, buf)
	smp.Blocks = total
	for d, refs := range perDisk {
		for i := range refs {
			if i == 0 || refs[i].phys != refs[i-1].phys+1 {
				smp.Runs++
			}
		}
		if len(refs) > 0 {
			smp.PerDisk[d] = len(refs)
		}
	}
	s.report(smp)
	return true
}

// report hands one sample to the observer of every instrumentation layer
// the System looked through, outermost first; they share its PerDisk map.
func (s *System) report(smp OpSample) {
	for _, obs := range s.observers {
		obs(smp)
	}
}

// sample describes a successful batch of bs-record blocks that started at
// start and has just finished.
func sample(kind IOKind, xfers []RangeXfer, bs int, start time.Time) OpSample {
	s := OpSample{Op: word(kind), Runs: len(xfers), PerDisk: make(map[int]int, len(xfers)), Start: start}
	for _, x := range xfers {
		n := len(x.Data) / bs
		s.Blocks += n
		s.PerDisk[x.Disk] += n
	}
	s.Dur = time.Since(start)
	return s
}
