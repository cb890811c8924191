package engine

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/pdm"
	"repro/internal/perm"
)

// RunMRCPass performs the MRC permutation p in one pass: for each source
// memoryload, read its M/BD stripes (striped reads), permute the records in
// memory, and write them to the (possibly different) target memoryload with
// striped writes. Exactly 2N/BD parallel I/Os.
func RunMRCPass(ctx context.Context, sys *pdm.System, p perm.BMMC, opt Options) error {
	cfg := sys.Config()
	if err := checkGeometry(cfg, p); err != nil {
		return err
	}
	m := cfg.LgM()
	if !p.IsMRC(m) {
		return fmt.Errorf("engine: permutation is not MRC for m=%d", m)
	}
	applier := p.Compile()
	st := &mrcStrategy{cfg: cfg, applier: applier, run: runLength(applier.RunBits(), cfg.LgM())}
	return runPass(ctx, sys, st, opt)
}

// mrcStrategy is the block-placement rule of an MRC pass: each source
// memoryload maps onto a single target memoryload, so both the reads and
// the writes are striped.
type mrcStrategy struct {
	cfg     pdm.Config
	applier *perm.Compiled
	run     int // records per coalesced scatter run (1 = per-record kernel)

	// Cached striped schedules, retargeted per load. Reads are planned on
	// the prefetch goroutine and writes built by the scatter on the main
	// goroutine, so each side owns its own template; the runner copies the
	// writes before handing them to its writer goroutine.
	readOps  [][]pdm.BlockIO
	writeOps [][]pdm.BlockIO
	checked  bool // the pass's class check passed; scatter-only
}

func (st *mrcStrategy) kind() string { return "MRC" }

func (st *mrcStrategy) kernel() string { return kernelName(st.run) }

func (st *mrcStrategy) loads() int { return st.cfg.Memoryloads() }

func (st *mrcStrategy) prepare(ml int) (loadPlan, error) {
	return loadPlan{reads: retargetStriped(&st.readOps, st.cfg, ml)}, nil
}

func (st *mrcStrategy) scatter(ml int, _ loadPlan, in, out *pdm.Buffer) ([][]pdm.BlockIO, error) {
	cfg := st.cfg
	y0 := st.applier.Apply(uint64(ml) * uint64(cfg.M))
	tml := cfg.MemoryloadOf(y0)
	if !st.checked {
		// y(base|i) = y0 ⊕ A·i: a property of A, checked once per pass.
		if k := escapingStep(st.applier, cfg.LgM(), cfg.LgM()); k >= 0 {
			return nil, fmt.Errorf("engine: MRC pass scattered memoryload %d across targets %d and %d", ml, tml, cfg.MemoryloadOf(y0^st.applier.Delta(k)))
		}
		st.checked = true
	}
	scatterLoad(st.applier, st.run, y0, in.Records(), out.Records())
	return retargetStriped(&st.writeOps, cfg, tml), nil
}

// scatterLoad is the record loop every one-pass scatter shares. src holds
// an aligned source range, a memoryload or a frame: src[i] lands at
// dst[y(i) & (len(dst)−1)], where y(0) = y0 and y(i) = y(i−1) ⊕
// Delta(TrailingZeros(i)). The record kernel unrolls by eight, keeping the
// in-group steps Delta 0, 1, 0, 2, 0, 1, 0 in registers: TrailingZeros'
// BSF on baseline amd64 puts a false dependency on y's chain. The run
// kernel, which also takes ranges under eight records as runs of one,
// steps from run start to run start by Delta(tz(i)) ⊕ (run−1), since
// (i−run) ⊕ i = (2^(tz(i)+1)−1) ⊕ (run−1) and A fixes the low lg(run)
// bits, and moves each run with one copy.
func scatterLoad(a *perm.Compiled, run int, y0 uint64, src, dst []pdm.Record) {
	mask := uint64(len(dst) - 1)
	y := y0
	if run > 1 || len(src) < 8 {
		for i := 0; i < len(src); i += run {
			d := int(y & mask)
			copy(dst[d:d+run], src[i:i+run])
			y ^= a.Delta(bits.TrailingZeros(uint(i+run))) ^ uint64(run-1)
		}
		return
	}
	d0, d1, d2 := a.Delta(0), a.Delta(1), a.Delta(2)
	for i := 0; i < len(src); i += 8 {
		s := src[i : i+8 : i+8]
		dst[y&mask] = s[0]
		y ^= d0
		dst[y&mask] = s[1]
		y ^= d1
		dst[y&mask] = s[2]
		y ^= d0
		dst[y&mask] = s[3]
		y ^= d2
		dst[y&mask] = s[4]
		y ^= d0
		dst[y&mask] = s[5]
		y ^= d1
		dst[y&mask] = s[6]
		y ^= d0
		dst[y&mask] = s[7]
		y ^= a.Delta(bits.TrailingZeros(uint(i + 8)))
	}
}

// escapingStep returns the first k < lo whose Delta(k) has a bit at or
// above m = lg M, or -1 iff every aligned run of 2^lo source addresses
// shares one target memoryload.
func escapingStep(a *perm.Compiled, lo, m int) int {
	for k := 0; k < lo; k++ {
		if a.Delta(k)>>uint(m) != 0 {
			return k
		}
	}
	return -1
}

// RunMLDPass performs the MLD permutation p in one pass: striped reads of
// each source memoryload, an in-memory permutation clustering the records
// into M/B full target blocks spread evenly across the disks (properties
// 1-3 of Section 3), and M/BD independent parallel writes. Exactly 2N/BD
// parallel I/Os. The three MLD properties are asserted at run time, so
// calling this with a non-MLD permutation returns an error rather than
// corrupting data.
func RunMLDPass(ctx context.Context, sys *pdm.System, p perm.BMMC, opt Options) error {
	cfg := sys.Config()
	if err := checkGeometry(cfg, p); err != nil {
		return err
	}
	b, m := cfg.LgB(), cfg.LgM()
	if !p.IsMLD(b, m) {
		return fmt.Errorf("engine: permutation is not MLD for b=%d m=%d", b, m)
	}
	applier := p.Compile()
	st := &mldStrategy{cfg: cfg, applier: applier, run: runLength(applier.RunBits(), cfg.LgM())}
	return runPass(ctx, sys, st, opt)
}

// mldStrategy is the block-placement rule of an MLD pass: records cluster
// into full target blocks keyed by relative block number (property 1), each
// block targets one memoryload (property 2), and the blocks spread evenly
// across the disks (property 3), enabling independent writes.
type mldStrategy struct {
	cfg     pdm.Config
	applier *perm.Compiled
	run     int // records per coalesced scatter run (1 = per-record kernel)

	// readOps is the cached striped read schedule, retargeted per load on
	// the prefetch goroutine.
	readOps [][]pdm.BlockIO

	// Scatter state, set by the first scatter on the main goroutine:
	// linLoad (see checkPass) and the write schedule, which the runner
	// copies before the next scatter (its writer never reads wOps).
	linLoad []int
	wByDisk [][]pdm.BlockIO
	wOps    [][]pdm.BlockIO
}

func (st *mldStrategy) kind() string { return "MLD" }

func (st *mldStrategy) kernel() string { return kernelName(st.run) }

func (st *mldStrategy) loads() int { return st.cfg.Memoryloads() }

func (st *mldStrategy) prepare(ml int) (loadPlan, error) {
	return loadPlan{reads: retargetStriped(&st.readOps, st.cfg, ml)}, nil
}

// checkPass walks the linear part v = A·i, i in [0, M), by the step table.
// Load base's record i lands at y0 ⊕ v, and RelBlock and MemoryloadOf are
// bit fields, so properties 1-2 hold for every load iff each relative
// block of v holds B values with one memoryload, kept as linLoad. Errors
// name load y0's absolute blocks and memoryloads.
func (st *mldStrategy) checkPass(y0 uint64) error {
	cfg := st.cfg
	r0, l0 := cfg.RelBlock(y0), cfg.MemoryloadOf(y0)
	linLoad := make([]int, cfg.Frames())
	count := make([]int, cfg.Frames())
	v := uint64(0)
	for i := 0; i < cfg.M; i++ {
		r, l := cfg.RelBlock(v), cfg.MemoryloadOf(v)
		if count[r] == 0 {
			linLoad[r] = l
		} else if linLoad[r] != l {
			return fmt.Errorf("engine: MLD property 2 violated: relative block %d maps to memoryloads %d and %d", r^r0, linLoad[r]^l0, l^l0)
		}
		count[r]++
		v ^= st.applier.Delta(bits.TrailingZeros(uint(i + 1)))
	}
	for r := range count {
		if c := count[r^r0]; c != cfg.B {
			return fmt.Errorf("engine: MLD property 1 violated: relative block %d holds %d records, want B=%d", r, c, cfg.B)
		}
	}
	st.linLoad = linLoad
	return nil
}

func (st *mldStrategy) scatter(ml int, _ loadPlan, in, out *pdm.Buffer) ([][]pdm.BlockIO, error) {
	cfg := st.cfg
	y0 := st.applier.Apply(uint64(ml) * uint64(cfg.M))
	if st.linLoad == nil {
		if err := st.checkPass(y0); err != nil {
			return nil, err
		}
		st.wByDisk = make([][]pdm.BlockIO, cfg.D)
		st.wOps = make([][]pdm.BlockIO, cfg.FramesPerDisk())
		ios := make([]pdm.BlockIO, cfg.FramesPerDisk()*cfg.D)
		for wave := range st.wOps {
			st.wOps[wave] = ios[wave*cfg.D : (wave+1)*cfg.D]
		}
	}
	// dst[y & (M−1)] is dst[RelBlock(y)*B + Offset(y)]: adjacent bit fields.
	scatterLoad(st.applier, st.run, y0, in.Records(), out.Records())
	// Group the M/B target blocks by destination disk (property 3: exactly
	// M/BD per disk) and write them in M/BD independent waves.
	b, m := cfg.LgB(), cfg.LgM()
	r0, l0 := cfg.RelBlock(y0), cfg.MemoryloadOf(y0)
	byDisk := st.wByDisk
	for d := range byDisk {
		byDisk[d] = byDisk[d][:0]
	}
	for r := 0; r < cfg.Frames(); r++ {
		yr := uint64(l0^st.linLoad[r^r0])<<uint(m) | uint64(r)<<uint(b)
		disk := cfg.DiskOf(yr)
		byDisk[disk] = append(byDisk[disk], pdm.BlockIO{Disk: disk, Block: cfg.StripeOf(yr), Frame: r})
	}
	for disk, blocks := range byDisk {
		if len(blocks) != cfg.FramesPerDisk() {
			return nil, fmt.Errorf("engine: MLD property 3 violated: disk %d receives %d blocks, want M/BD=%d", disk, len(blocks), cfg.FramesPerDisk())
		}
	}
	ops := st.wOps
	for wave := 0; wave < cfg.FramesPerDisk(); wave++ {
		for disk := range ops[wave] {
			ops[wave][disk] = byDisk[disk][wave]
		}
	}
	return ops, nil
}

func checkGeometry(cfg pdm.Config, p perm.BMMC) error {
	if p.Bits() != cfg.LgN() {
		return fmt.Errorf("engine: permutation on %d-bit addresses, system has n=%d", p.Bits(), cfg.LgN())
	}
	return nil
}
