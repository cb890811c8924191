package pdm

import "time"

// OpSample describes one timed backend batch: the operation shape plus
// its wall-clock duration. Runs counts the batch's transfers and Blocks
// the blocks they moved; PerDisk holds, for each disk touched, the number
// of blocks moved on that disk (used for per-disk latency labels — the
// whole batch shares one duration because it is timed as a unit).
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
// must be fast and must not call back into the backend.
type OpObserver func(OpSample)

// InstrumentBackend wraps be so every successful ReadBlocks and
// WriteBlocks call is timed and reported to obs. A System given the
// wrapper times each of its batches itself and reports it as one sample,
// so Runs counts the batch's transfers under concurrent dispatch too. The
// wrapper forwards BlockView to the inner backend, so copy-free dumps
// survive instrumentation (view access is not a counted operation and is
// deliberately untimed).
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

func (i *instrumented) Sync() error  { return i.be.Sync() }
func (i *instrumented) Close() error { return i.be.Close() }

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
// succeeds, reports it to the instrumented backend's observer as one
// sample.
func (s *System) observedDispatch(kind IOKind, xfers []RangeXfer) error {
	start := time.Now()
	err := s.dispatch(kind, xfers)
	if err == nil {
		s.observeIO(sample(kind, xfers, s.cfg.B, start))
	}
	return err
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
