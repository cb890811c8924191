package engine

import (
	"context"
	"fmt"

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
	if err := runPass(ctx, sys, st, opt); err != nil {
		return err
	}
	sys.SwapPortions()
	return nil
}

// mrcStrategy is the block-placement rule of an MRC pass: each source
// memoryload maps onto a single target memoryload, so both the reads and
// the writes are striped.
type mrcStrategy struct {
	cfg     pdm.Config
	applier *perm.Compiled
	run     int // records per coalesced scatter run (1 = per-record kernel)

	// Cached striped schedules, retargeted per load. Reads are planned on
	// the prefetch goroutine and writes issued on the main goroutine, so
	// each side owns its own template.
	readOps  [][]pdm.BlockIO
	writeOps [][]pdm.BlockIO
}

func (st *mrcStrategy) kind() string { return "MRC" }

func (st *mrcStrategy) kernel() string { return kernelName(st.run) }

func (st *mrcStrategy) loads() int { return st.cfg.Memoryloads() }

func (st *mrcStrategy) prepare(ml int) (loadPlan, error) {
	return loadPlan{reads: retargetStriped(&st.readOps, st.cfg, ml)}, nil
}

func (st *mrcStrategy) scatter(ml int, _ loadPlan, in, out *pdm.Buffer) ([][]pdm.BlockIO, error) {
	cfg := st.cfg
	base := uint64(ml) * uint64(cfg.M)
	mask := uint64(cfg.M - 1)
	src, dst := in.Records(), out.Records()
	// in[i] holds the record with source address base|i; its target
	// address shares one memoryload number across the whole load.
	tml := cfg.MemoryloadOf(st.applier.Apply(base))
	if st.run > 1 {
		// Run-coalescing kernel: the permutation fixes the low lg(run)
		// address bits, so target addresses advance in lockstep with the
		// source index across each aligned run — one Apply and one copy
		// cover the whole run, and MemoryloadOf is constant across it
		// (run <= M), so the MRC invariant check per run covers every
		// record.
		for i := 0; i < cfg.M; i += st.run {
			y := st.applier.Apply(base | uint64(i))
			if l := cfg.MemoryloadOf(y); l != tml {
				return nil, fmt.Errorf("engine: MRC pass scattered memoryload %d across targets %d and %d", ml, tml, l)
			}
			d := int(y & mask)
			copy(dst[d:d+st.run], src[i:i+st.run])
		}
	} else {
		for i := 0; i < cfg.M; i++ {
			y := st.applier.Apply(base | uint64(i))
			if l := cfg.MemoryloadOf(y); l != tml {
				return nil, fmt.Errorf("engine: MRC pass scattered memoryload %d across targets %d and %d", ml, tml, l)
			}
			dst[y&mask] = src[i]
		}
	}
	return retargetStriped(&st.writeOps, cfg, tml), nil
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
	if err := runPass(ctx, sys, st, opt); err != nil {
		return err
	}
	sys.SwapPortions()
	return nil
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

	// Scatter scratch, reused across loads: records placed per relative
	// block, each block's target memoryload, and the write schedule built
	// from them. scatter runs only on the main goroutine, one load at a
	// time, and the System consumes the returned operations synchronously,
	// so reuse is safe.
	wFill   []int
	wLoadOf []int
	wByDisk [][]pdm.BlockIO
	wOps    [][]pdm.BlockIO
}

func (st *mldStrategy) kind() string { return "MLD" }

func (st *mldStrategy) kernel() string { return kernelName(st.run) }

func (st *mldStrategy) loads() int { return st.cfg.Memoryloads() }

func (st *mldStrategy) prepare(ml int) (loadPlan, error) {
	return loadPlan{reads: retargetStriped(&st.readOps, st.cfg, ml)}, nil
}

func (st *mldStrategy) scatter(ml int, _ loadPlan, in, out *pdm.Buffer) ([][]pdm.BlockIO, error) {
	cfg := st.cfg
	if st.wFill == nil {
		st.wFill = make([]int, cfg.Frames())
		st.wLoadOf = make([]int, cfg.Frames())
		st.wByDisk = make([][]pdm.BlockIO, cfg.D)
		st.wOps = make([][]pdm.BlockIO, cfg.FramesPerDisk())
		ios := make([]pdm.BlockIO, cfg.FramesPerDisk()*cfg.D)
		for wave := range st.wOps {
			st.wOps[wave] = ios[wave*cfg.D : (wave+1)*cfg.D]
		}
	}
	fill, loadOf := st.wFill, st.wLoadOf
	for f := range fill {
		fill[f] = 0
		loadOf[f] = -1
	}
	base := uint64(ml) * uint64(cfg.M)
	src, dst := in.Records(), out.Records()
	if st.run > 1 {
		// Run-coalescing kernel. The target buffer index r*B + Offset(y)
		// equals the low lg M bits of y (RelBlock and Offset are adjacent
		// bit fields), so a contiguous run of target addresses is a
		// contiguous span of the output buffer: one Apply and one copy per
		// run. The memoryload is constant across a run (run <= M), so the
		// property-2 check folds into per-block accounting over the span
		// instead of per-record lookups.
		mask := uint64(cfg.M - 1)
		for i := 0; i < cfg.M; i += st.run {
			y := st.applier.Apply(base | uint64(i))
			l := cfg.MemoryloadOf(y)
			d := int(y & mask)
			copy(dst[d:d+st.run], src[i:i+st.run])
			for j := 0; j < st.run; {
				r := (d + j) / cfg.B
				step := cfg.B - (d+j)%cfg.B
				if j+step > st.run {
					step = st.run - j
				}
				if loadOf[r] < 0 {
					loadOf[r] = l
				} else if loadOf[r] != l {
					return nil, fmt.Errorf("engine: MLD property 2 violated: relative block %d maps to memoryloads %d and %d", r, loadOf[r], l)
				}
				fill[r] += step
				j += step
			}
		}
	} else {
		for i := 0; i < cfg.M; i++ {
			y := st.applier.Apply(base | uint64(i))
			r := cfg.RelBlock(y)
			l := cfg.MemoryloadOf(y)
			if loadOf[r] < 0 {
				loadOf[r] = l
			} else if loadOf[r] != l {
				return nil, fmt.Errorf("engine: MLD property 2 violated: relative block %d maps to memoryloads %d and %d", r, loadOf[r], l)
			}
			dst[r*cfg.B+cfg.Offset(y)] = src[i]
			fill[r]++
		}
	}
	for r, c := range fill {
		if c != cfg.B {
			return nil, fmt.Errorf("engine: MLD property 1 violated: relative block %d holds %d records, want B=%d", r, c, cfg.B)
		}
	}
	// Group the M/B target blocks by destination disk (property 3: exactly
	// M/BD per disk) and write them in M/BD independent waves.
	b, m := cfg.LgB(), cfg.LgM()
	byDisk := st.wByDisk
	for d := range byDisk {
		byDisk[d] = byDisk[d][:0]
	}
	for r := 0; r < cfg.Frames(); r++ {
		y0 := uint64(loadOf[r])<<uint(m) | uint64(r)<<uint(b)
		disk := cfg.DiskOf(y0)
		byDisk[disk] = append(byDisk[disk], pdm.BlockIO{
			Disk:  disk,
			Block: cfg.StripeOf(y0),
			Frame: r,
		})
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
