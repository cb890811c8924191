package pdm

// Adversarial storage: deterministic fault- and latency-injecting Backend
// wrappers. The paper's parallel-disk model assumes D independent,
// uniformly fast, always-correct disks; these wrappers let every engine
// path and the daemon's job/dataset lifecycle be exercised under disks
// that are slow, skewed, flaky, or tear multi-block transfers midway —
// with the whole adversarial schedule reproducible from a single seed, so
// a failing chaos run shrinks to a replayable case.
//
// Composability: each wrapper takes any Backend and is itself a Backend,
// so adversaries stack over MemBackend, FileBackend, ShardedFileBackend,
// a custom third-party backend, or each other. A wrapper makes one
// decision per transfer — inject, delay, or tear — whether the transfer is
// a single block or a coalesced run of them, so adversaries compose with
// the grouped parallel-I/O path instead of disabling it. No wrapper offers
// BlockView: bulk dumps through a wrapper move every block as a transfer
// and stay exposed to the adversary.
//
// Determinism contract:
//
//   - Probability decisions (FlakyOptions.Rate, TornOptions.Rate, latency
//     jitter, tear points) are pure functions of (seed, kind, disk, block,
//     visit), where visit counts prior armed operations on the same
//     (kind, disk, block). They are therefore independent of goroutine
//     interleaving: pipelined and concurrent runs trigger the same fault
//     set as sequential ones.
//   - Count triggers (FlakyOptions.FailAfterN, TornOptions.TearNth) use
//     the wrapper-global attempt ordinal, which is deterministic whenever
//     the backend observes a deterministic operation order — sequential,
//     unpipelined execution, as used by the golden-schedule tests.
//   - A batch's transfers are decided and served in batch order, so a
//     fault stops the batch: earlier transfers land, later ones are not
//     attempted. That holds for sequential dispatch only. Under the
//     System's concurrent dispatch each transfer reaches the wrapper as a
//     batch of its own on its own goroutine, so every unfaulted transfer
//     lands and count-trigger ordinals follow goroutine scheduling rather
//     than batch order.
//
// Every injected failure wraps ErrInjectedFault, so callers at any layer
// (System, engine, Engine.Execute, the bmmcd job manager) can
// errors.Is for it. Wrappers start armed; Disarm/Arm bracket setup
// phases (initial record loads) that should run clean.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedFault is the sentinel wrapped by every fault an adversarial
// wrapper injects, so callers can errors.Is for it.
var ErrInjectedFault = errors.New("pdm: injected disk fault")

// FaultMode selects which operation kinds an adversary injects on.
type FaultMode int

const (
	// FaultReadWrite injects on both reads and writes (the zero value).
	FaultReadWrite FaultMode = iota
	// FaultReadOnly injects on reads only.
	FaultReadOnly
	// FaultWriteOnly injects on writes only.
	FaultWriteOnly
)

func (m FaultMode) matches(kind IOKind) bool {
	switch m {
	case FaultReadOnly:
		return kind == IORead
	case FaultWriteOnly:
		return kind == IOWrite
	}
	return true
}

// word names an operation kind in fault messages.
func word(kind IOKind) string {
	if kind == IOWrite {
		return "write"
	}
	return "read"
}

// ChaosOp records one backend operation observed by an adversarial
// wrapper: its ordinal among the wrapper's armed operations, the blocks it
// addressed, its per-(kind,disk,block) visit number, and the fault it
// injected ("" for a clean operation).
type ChaosOp struct {
	Op     int    // armed-operation ordinal, from 0
	Kind   IOKind // read or write
	Disk   int    // disk addressed
	Block  int    // first block of the operation
	Blocks int    // blocks the transfer covers: 1 for a single block, more for a run
	Visit  int    // prior armed ops on the same (kind, disk, block)
	Fault  string // injected fault description, "" when the op ran clean

	// Delay is the simulated service time a LatencyBackend charged the
	// operation (zero for fault-only wrappers). It is part of the
	// deterministic schedule — same seed, same workload, same delays —
	// but not of String, so golden schedules are latency-agnostic.
	Delay time.Duration
}

func (o ChaosOp) String() string {
	s := fmt.Sprintf("op%04d %s d%d b%d n%d v%d", o.Op, o.Kind, o.Disk, o.Block, o.Blocks, o.Visit)
	if o.Fault != "" {
		s += " FAULT " + o.Fault
	}
	return s
}

// ChaosLog accumulates the operations an adversarial wrapper observed —
// the fault schedule. Safe for concurrent use; under sequential execution
// the log is fully deterministic (same seed, same workload, same String),
// which is what the seed-reproducibility and golden-schedule tests pin.
type ChaosLog struct {
	mu  sync.Mutex
	ops []ChaosOp
}

func (l *ChaosLog) add(op ChaosOp) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

// Ops returns a copy of the recorded operations in observation order.
func (l *ChaosLog) Ops() []ChaosOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ChaosOp(nil), l.ops...)
}

// Faults returns only the operations that injected a fault.
func (l *ChaosLog) Faults() []ChaosOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []ChaosOp
	for _, op := range l.ops {
		if op.Fault != "" {
			out = append(out, op)
		}
	}
	return out
}

// Len returns the number of recorded operations.
func (l *ChaosLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// Reset clears the log.
func (l *ChaosLog) Reset() {
	l.mu.Lock()
	l.ops = nil
	l.mu.Unlock()
}

// String renders the schedule one operation per line.
func (l *ChaosLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	lines := make([]string, len(l.ops))
	for i, op := range l.ops {
		lines[i] = op.String()
	}
	return strings.Join(lines, "\n")
}

// chaosHash mixes the decision coordinates through a splitmix64-style
// finalizer. salt separates independent decision streams (fault vs jitter
// vs tear point) drawn from the same coordinates.
func chaosHash(seed int64, salt uint64, kind IOKind, disk, block, visit int) uint64 {
	x := uint64(seed) ^ salt
	for _, v := range [...]uint64{uint64(kind) + 1, uint64(disk) + 1, uint64(block) + 1, uint64(visit) + 1} {
		x ^= v * 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

const (
	saltFault  = 0x8e51_ecf3_27bd_1a01
	saltJitter = 0x1b87_3f04_9c4d_66fd
	saltTear   = 0x5ff2_ab09_d033_7e55
	saltDist   = 0x7a44_91de_0b5c_23c9
)

// chance reports a deterministic Bernoulli draw: true with probability p.
func chance(p float64, h uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(h)/math.MaxUint64 < p
}

// visitKey identifies one (kind, disk, block) coordinate for visit counts.
type visitKey struct {
	kind        IOKind
	disk, block int
}

// chaosState is the bookkeeping shared by all adversarial wrappers: the
// armed flag, the attempt ordinal, per-coordinate visit counts, and the
// optional schedule log.
type chaosState struct {
	log *ChaosLog

	mu     sync.Mutex
	armed  bool
	ops    int
	visits map[visitKey]int
}

func newChaosState(log *ChaosLog) *chaosState {
	return &chaosState{log: log, armed: true, visits: make(map[visitKey]int)}
}

// next assigns the operation its ordinal and visit number. Disarmed
// operations are neither counted nor logged — they pass through clean, so
// setup phases (initial loads) never perturb the armed schedule.
func (c *chaosState) next(kind IOKind, disk, block int) (op, visit int, armed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return 0, 0, false
	}
	op = c.ops
	c.ops++
	k := visitKey{kind, disk, block}
	visit = c.visits[k]
	c.visits[k] = visit + 1
	return op, visit, true
}

// Arm enables injection and logging. Wrappers start armed.
func (c *chaosState) Arm() {
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
}

// Disarm makes the wrapper fully transparent: no faults, no latency, no
// counting, no logging — until Arm.
func (c *chaosState) Disarm() {
	c.mu.Lock()
	c.armed = false
	c.mu.Unlock()
}

// Reset zeroes the attempt ordinal and visit counts (and the log, if any),
// restarting the schedule from the beginning.
func (c *chaosState) Reset() {
	c.mu.Lock()
	c.ops = 0
	c.visits = make(map[visitKey]int)
	c.mu.Unlock()
	if c.log != nil {
		c.log.Reset()
	}
}

// Ops returns the number of armed operations observed so far.
func (c *chaosState) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// chaosBase is what every adversarial wrapper shares: the wrapped backend,
// the block size captured at Open, and the schedule state behind Arm,
// Disarm, Reset and Ops. Sync and Close pass straight through.
type chaosBase struct {
	*chaosState
	inner Backend
	bs    int
}

func newChaosBase(inner Backend, log *ChaosLog) chaosBase {
	return chaosBase{chaosState: newChaosState(log), inner: inner}
}

// Open implements Backend.
func (c *chaosBase) Open(numDisks, numBlocks, blockSize int) error {
	c.bs = blockSize
	return c.inner.Open(numDisks, numBlocks, blockSize)
}

// Sync implements Backend.
func (c *chaosBase) Sync() error { return c.inner.Sync() }

// Close implements Backend.
func (c *chaosBase) Close() error { return c.inner.Close() }

// move hands a batch to the wrapped backend.
func (c *chaosBase) move(kind IOKind, xfers []RangeXfer) error {
	if kind == IORead {
		return c.inner.ReadBlocks(xfers)
	}
	return c.inner.WriteBlocks(xfers)
}

// serve decides the batch's transfers in order and moves what survives:
// the whole batch when no decision faults; otherwise the transfers before
// the first faulted one, then the first cut blocks of the faulted one, and
// the fault — later transfers are not attempted. (Concurrent dispatch
// sends batches of one, so there a fault spares every other transfer.)
func (c *chaosBase) serve(kind IOKind, xfers []RangeXfer, decide func(IOKind, RangeXfer) (cut int, err error)) error {
	for i, x := range xfers {
		cut, err := decide(kind, x)
		if err == nil {
			continue
		}
		if i > 0 {
			if merr := c.move(kind, xfers[:i]); merr != nil {
				return merr
			}
		}
		if cut > 0 {
			prefix := []RangeXfer{{Disk: x.Disk, Block: x.Block, Data: x.Data[:cut*c.bs]}}
			if merr := c.move(kind, prefix); merr != nil {
				return merr
			}
		}
		return err
	}
	return c.move(kind, xfers)
}

// ---------------------------------------------------------------------------
// FlakyBackend

// FlakyOptions configures a FlakyBackend. The zero value (with a seed)
// injects nothing — arm a failure source explicitly via Rate or
// FailAfterN.
type FlakyOptions struct {
	// Seed drives every probability decision; the fault schedule is a pure
	// function of the seed and the operation stream.
	Seed int64
	// Rate is the per-operation failure probability, decided
	// deterministically per (kind, disk, block, visit). 0 disables.
	Rate float64
	// FailAfterN, when > 0, fails every matching operation from the N'th
	// armed attempt (1-based) onward: FailAfterN == 1 fails everything.
	// 0 disables count-triggered faults.
	FailAfterN int
	// RecoverAfter, when > 0 together with FailAfterN, bounds the failing
	// window to that many attempts — the transient-then-recover adversary:
	// operations at ordinals [FailAfterN-1, FailAfterN-1+RecoverAfter)
	// fail, later ones succeed again. 0 never recovers.
	RecoverAfter int
	// Mode restricts injection to reads or writes (read-only / write-only
	// flakiness). The zero value faults both.
	Mode FaultMode
	// Log, when non-nil, records the full operation schedule.
	Log *ChaosLog
}

// FlakyBackend injects seeded failures into any Backend: per-transfer
// fault probability, fail-after-N, read-only/write-only modes, and
// transient-then-recover windows. Injected errors wrap ErrInjectedFault
// and abort the batch at the faulted transfer: transfers earlier in the
// batch land, later ones are not attempted. Under the System's concurrent
// dispatch every transfer is a batch of its own, so each fails or lands
// on its own.
type FlakyBackend struct {
	chaosBase
	o FlakyOptions
}

// NewFlakyBackend wraps inner with seeded fault injection. The wrapper
// starts armed.
func NewFlakyBackend(inner Backend, o FlakyOptions) *FlakyBackend {
	return &FlakyBackend{chaosBase: newChaosBase(inner, o.Log), o: o}
}

// NewFaultyBackend wraps inner so every transfer from number failAfter
// (0-based, reads and writes combined) onward fails.
func NewFaultyBackend(inner Backend, failAfter int) *FlakyBackend {
	return NewFlakyBackend(inner, FlakyOptions{FailAfterN: failAfter + 1})
}

// ReadBlocks implements Backend: the transfers before the first injected
// fault land, the faulted and following ones do not.
func (f *FlakyBackend) ReadBlocks(xfers []RangeXfer) error {
	return f.serve(IORead, xfers, f.inject)
}

// WriteBlocks implements Backend (see ReadBlocks).
func (f *FlakyBackend) WriteBlocks(xfers []RangeXfer) error {
	return f.serve(IOWrite, xfers, f.inject)
}

// inject decides the fate of one transfer, logging it either way. A
// faulted transfer moves none of its blocks.
func (f *FlakyBackend) inject(kind IOKind, x RangeXfer) (int, error) {
	op, visit, armed := f.next(kind, x.Disk, x.Block)
	if !armed {
		return 0, nil
	}
	fault := ""
	if f.o.Mode.matches(kind) {
		if f.o.FailAfterN > 0 && op >= f.o.FailAfterN-1 &&
			(f.o.RecoverAfter <= 0 || op < f.o.FailAfterN-1+f.o.RecoverAfter) {
			fault = "count"
		} else if chance(f.o.Rate, chaosHash(f.o.Seed, saltFault, kind, x.Disk, x.Block, visit)) {
			fault = "rate"
		}
	}
	ent := ChaosOp{Op: op, Kind: kind, Disk: x.Disk, Block: x.Block, Blocks: len(x.Data) / f.bs, Visit: visit}
	var err error
	if fault != "" {
		err = fmt.Errorf("%w: flaky %s of disk %d block %d (%s, visit %d)",
			ErrInjectedFault, word(kind), x.Disk, x.Block, fault, visit)
		ent.Fault = err.Error()
	}
	f.log.add(ent)
	return 0, err
}

// ---------------------------------------------------------------------------
// LatencyBackend

// LatencyOptions configures a LatencyBackend.
type LatencyOptions struct {
	// Seed drives the deterministic per-op jitter.
	Seed int64
	// PerBlock is the mean service time per block transferred: a range of
	// k blocks takes k times as long, so coalescing changes syscall count
	// but not simulated service time.
	PerBlock time.Duration
	// Jitter varies each operation's latency by up to this fraction of its
	// mean, deterministically per (kind, disk, block, visit). 0 disables.
	Jitter float64
	// Dist, when non-nil, replaces the constant-plus-jitter law
	// (PerBlock/Jitter) with a per-block service-time distribution from
	// the catalog — LognormalLatency or ParetoLatency — sampled
	// deterministically per (kind, disk, block, visit) from Seed.
	// DiskFactors still apply on top.
	Dist LatencyDist
	// DiskFactors skews per-disk speed: disk d's latency is multiplied by
	// DiskFactors[d % len]. Nil means uniform disks; {10, 1, 1, 1} makes
	// disk 0 ten times slower than the rest.
	DiskFactors []float64
	// Log, when non-nil, records the operation schedule.
	Log *ChaosLog
}

// LatencyDist is a per-block service-time law for LatencyBackend: it maps
// two independent uniform draws in (0,1] — pure hashes of (seed, kind,
// disk, block, visit) — to one block's service time, so a distribution is
// exactly as deterministic and interleaving-independent as the constant
// law it replaces. Construct values with LognormalLatency or
// ParetoLatency.
type LatencyDist interface {
	// sample maps two uniforms in (0,1] to one block's service time.
	sample(u1, u2 float64) time.Duration
	// String names the distribution and its parameters.
	String() string
}

// lognormalDist models the body of real spinning-disk service-time traces:
// most operations near the median, a smooth right tail.
type lognormalDist struct {
	median time.Duration
	sigma  float64
}

// LognormalLatency returns a lognormal service-time law with the given
// median per-block time and log-scale shape sigma (sigma 0 degenerates to
// the constant law; 0.5 is a mild tail, 1.5 a heavy one). The mean is
// median * exp(sigma²/2).
func LognormalLatency(median time.Duration, sigma float64) LatencyDist {
	return lognormalDist{median: median, sigma: sigma}
}

func (d lognormalDist) sample(u1, u2 float64) time.Duration {
	// Box–Muller: z is standard normal; exp(sigma·z) is lognormal with
	// median 1.
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return time.Duration(float64(d.median) * math.Exp(d.sigma*z))
}

func (d lognormalDist) String() string {
	return fmt.Sprintf("lognormal(median=%v, sigma=%g)", d.median, d.sigma)
}

// paretoDist models the pathological tail: the occasional operation that
// takes orders of magnitude longer than the median (firmware stalls,
// sector retries).
type paretoDist struct {
	scale time.Duration
	alpha float64
	cap   time.Duration
}

// ParetoLatency returns a Pareto (power-law tail) service-time law:
// samples are scale * U^(-1/alpha), so scale is the minimum per-block time
// and smaller alpha means a heavier tail (alpha <= 1 has infinite mean).
// cap, when positive, clamps individual samples so a deterministic test
// schedule cannot stall for unbounded wall-clock; 0 leaves the tail
// unclamped.
func ParetoLatency(scale time.Duration, alpha float64, cap time.Duration) LatencyDist {
	return paretoDist{scale: scale, alpha: alpha, cap: cap}
}

func (d paretoDist) sample(u1, _ float64) time.Duration {
	t := time.Duration(float64(d.scale) * math.Pow(u1, -1/d.alpha))
	if d.cap > 0 && t > d.cap {
		t = d.cap
	}
	return t
}

func (d paretoDist) String() string {
	return fmt.Sprintf("pareto(scale=%v, alpha=%g, cap=%v)", d.scale, d.alpha, d.cap)
}

// distUniform maps a hash to a uniform draw in (0,1]: never exactly 0, so
// log and negative powers stay finite.
func distUniform(h uint64) float64 {
	return (float64(h>>11) + 1) / float64(1<<53)
}

// LatencyBackend delays every transfer of any Backend by a seeded,
// per-disk-skewed service time, sleeping on the calling goroutine before
// the batch moves. Under the System's concurrent dispatch every transfer
// arrives on its own goroutine, so every transfer's delay overlaps every
// other's — several runs on one disk included; sequential dispatch pays
// the sum. Latency changes wall-clock only — records, counts, and traces
// are untouched.
type LatencyBackend struct {
	chaosBase
	o LatencyOptions
}

// NewLatencyBackend wraps inner with deterministic injected latency. The
// wrapper starts armed.
func NewLatencyBackend(inner Backend, o LatencyOptions) *LatencyBackend {
	return &LatencyBackend{chaosBase: newChaosBase(inner, o.Log), o: o}
}

// ReadBlocks implements Backend: each transfer's delay, then the batch.
func (l *LatencyBackend) ReadBlocks(xfers []RangeXfer) error {
	return l.serve(IORead, xfers, l.delay)
}

// WriteBlocks implements Backend: each transfer's delay, then the batch.
func (l *LatencyBackend) WriteBlocks(xfers []RangeXfer) error {
	return l.serve(IOWrite, xfers, l.delay)
}

// delay sleeps one transfer's deterministic service time and logs it: a
// run of k blocks pays k blocks of latency. It never faults.
func (l *LatencyBackend) delay(kind IOKind, x RangeXfer) (int, error) {
	disk, block, blocks := x.Disk, x.Block, len(x.Data)/l.bs
	op, visit, armed := l.next(kind, disk, block)
	if !armed {
		return 0, nil
	}
	var d float64
	if l.o.Dist != nil {
		u1 := distUniform(chaosHash(l.o.Seed, saltDist, kind, disk, block, visit))
		u2 := distUniform(chaosHash(l.o.Seed, saltJitter, kind, disk, block, visit))
		d = float64(l.o.Dist.sample(u1, u2)) * float64(blocks)
	} else {
		d = float64(l.o.PerBlock) * float64(blocks)
		if l.o.Jitter > 0 {
			u := float64(chaosHash(l.o.Seed, saltJitter, kind, disk, block, visit)) / math.MaxUint64
			d *= 1 + l.o.Jitter*(2*u-1)
		}
	}
	if len(l.o.DiskFactors) > 0 {
		d *= l.o.DiskFactors[disk%len(l.o.DiskFactors)]
	}
	l.log.add(ChaosOp{Op: op, Kind: kind, Disk: disk, Block: block, Blocks: blocks, Visit: visit,
		Delay: time.Duration(d)})
	if d > 0 {
		time.Sleep(time.Duration(d))
	}
	return 0, nil
}

// ---------------------------------------------------------------------------
// TornRangeBackend

// TornOptions configures a TornRangeBackend.
type TornOptions struct {
	// Seed drives the tear probability and the tear point.
	Seed int64
	// Rate is the probability a multi-block transfer tears midway,
	// decided deterministically per (kind, disk, block, visit). 0 disables.
	Rate float64
	// TearNth, when > 0, tears the N'th armed multi-block transfer
	// (1-based) regardless of Rate. 0 disables count-triggered tears.
	TearNth int
	// Mode restricts tearing to reads or writes. The zero value tears both.
	Mode FaultMode
	// Log, when non-nil, records the transfer schedule.
	Log *ChaosLog
}

// TornRangeBackend tears multi-block transfers midway: a torn k-block run
// moves only its first 1..k-1 blocks (the tear point is seeded), then
// fails with a wrapped ErrInjectedFault. One-block transfers are never
// torn — blocks land atomically, exactly the failure surface the grouped
// parallel-I/O path must survive: per-wave accounting must not
// double-count or lose operations, and the wave-by-wave replay must leave
// the records exactly as the one-at-a-time reference semantics would.
type TornRangeBackend struct {
	chaosBase
	o      TornOptions
	ranges atomic.Int64 // armed multi-block transfers seen, for TearNth
}

// NewTornRangeBackend wraps inner with seeded torn transfers. The wrapper
// starts armed.
func NewTornRangeBackend(inner Backend, o TornOptions) *TornRangeBackend {
	return &TornRangeBackend{chaosBase: newChaosBase(inner, o.Log), o: o}
}

// Reset restarts the tear schedule from operation 0.
func (tb *TornRangeBackend) Reset() {
	tb.chaosState.Reset()
	tb.ranges.Store(0)
}

// ReadBlocks implements Backend: the transfers before the first torn one
// move whole, the torn one moves only its prefix, and the batch fails.
func (tb *TornRangeBackend) ReadBlocks(xfers []RangeXfer) error {
	return tb.serve(IORead, xfers, tb.tear)
}

// WriteBlocks implements Backend (see ReadBlocks).
func (tb *TornRangeBackend) WriteBlocks(xfers []RangeXfer) error {
	return tb.serve(IOWrite, xfers, tb.tear)
}

// tear decides whether one transfer tears and where, logging it either
// way; a torn transfer reports the blocks that still land.
func (tb *TornRangeBackend) tear(kind IOKind, x RangeXfer) (int, error) {
	blocks := len(x.Data) / tb.bs
	op, visit, armed := tb.next(kind, x.Disk, x.Block)
	if !armed {
		return 0, nil
	}
	cut := 0
	if blocks > 1 && tb.o.Mode.matches(kind) {
		nth := tb.ranges.Add(1)
		h := chaosHash(tb.o.Seed, saltTear, kind, x.Disk, x.Block, visit)
		if (tb.o.TearNth > 0 && nth == int64(tb.o.TearNth)) || chance(tb.o.Rate, chaosHash(tb.o.Seed, saltFault, kind, x.Disk, x.Block, visit)) {
			cut = 1 + int(h%uint64(blocks-1)) // 1..blocks-1 blocks land
		}
	}
	ent := ChaosOp{Op: op, Kind: kind, Disk: x.Disk, Block: x.Block, Blocks: blocks, Visit: visit}
	var err error
	if cut > 0 {
		err = fmt.Errorf("%w: torn %s of disk %d blocks [%d,%d): only %d of %d blocks transferred",
			ErrInjectedFault, word(kind), x.Disk, x.Block, x.Block+blocks, cut, blocks)
		ent.Fault = err.Error()
	}
	tb.log.add(ent)
	return cut, err
}
