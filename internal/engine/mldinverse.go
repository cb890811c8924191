package engine

import (
	"context"
	"fmt"

	"repro/internal/pdm"
	"repro/internal/perm"
)

// RunMLDInversePass performs the inverse of an MLD permutation in one pass,
// realizing the Section 7 remark that "the inverse of any one-pass
// permutation is a one-pass permutation". Where an MLD pass uses striped
// reads and independent writes, its inverse uses independent reads and
// striped writes: for each target memoryload, the M/B source blocks that
// feed it sit at arbitrary locations but spread evenly across the disks
// (the mirror image of MLD properties 1-3), so M/BD independent parallel
// reads gather them, the in-memory permutation rearranges, and M/BD striped
// writes emit the memoryload. Exactly 2N/BD parallel I/Os.
//
// p itself is the permutation to perform; its inverse must be MLD.
func RunMLDInversePass(ctx context.Context, sys *pdm.System, p perm.BMMC, opt Options) error {
	cfg := sys.Config()
	if err := checkGeometry(cfg, p); err != nil {
		return err
	}
	b, m := cfg.LgB(), cfg.LgM()
	inv := p.Inverse()
	if !inv.IsMLD(b, m) {
		return fmt.Errorf("engine: inverse is not MLD for b=%d m=%d", b, m)
	}
	applier := p.Compile()
	st := &invMLDStrategy{
		cfg:        cfg,
		applier:    applier,
		invApplier: inv.Compile(),
		run:        runLength(applier.RunBits(), cfg.LgB()),
	}
	if err := runPass(ctx, sys, st, opt); err != nil {
		return err
	}
	sys.SwapPortions()
	return nil
}

// invMLDStrategy is the mirror-image placement rule: loads iterate over
// target memoryloads, the reads gather the M/B scattered source blocks that
// feed each one (planned with the inverse map), and the writes are striped.
type invMLDStrategy struct {
	cfg        pdm.Config
	applier    *perm.Compiled // the permutation p itself
	invApplier *perm.Compiled // p^{-1}, used to plan the gather reads
	run        int            // records per coalesced scatter run (1 = per-record kernel)

	// writeOps is the cached striped write schedule, retargeted per load on
	// the main goroutine. The prepare scratch below lives on the prefetch
	// goroutine; the read schedule it builds is consumed before the next
	// prepare begins, so its backing arrays are reusable — unlike blockOf,
	// which travels in the plan and stays live through the load's scatter.
	writeOps [][]pdm.BlockIO
	pByDisk  [][]pdm.BlockIO
	pReads   [][]pdm.BlockIO
	pFrameOf map[int]int
}

func (st *invMLDStrategy) kind() string { return "MLD^-1" }

func (st *invMLDStrategy) kernel() string { return kernelName(st.run) }

func (st *invMLDStrategy) loads() int { return st.cfg.Memoryloads() }

func (st *invMLDStrategy) prepare(tml int) (loadPlan, error) {
	cfg := st.cfg
	// The records destined for target memoryload tml have source addresses
	// inv(base|j) for j = 0..M-1. By the MLD properties of the inverse
	// (read in reverse), they occupy M/B full source blocks, M/BD per disk.
	base := uint64(tml) * uint64(cfg.M)
	if st.pByDisk == nil {
		st.pByDisk = make([][]pdm.BlockIO, cfg.D)
		for d := range st.pByDisk {
			st.pByDisk[d] = make([]pdm.BlockIO, 0, cfg.FramesPerDisk())
		}
		st.pReads = make([][]pdm.BlockIO, cfg.FramesPerDisk())
		ios := make([]pdm.BlockIO, cfg.FramesPerDisk()*cfg.D)
		for wave := range st.pReads {
			st.pReads[wave] = ios[wave*cfg.D : (wave+1)*cfg.D]
		}
		st.pFrameOf = make(map[int]int, cfg.Frames())
	}
	byDisk := st.pByDisk
	for d := range byDisk {
		byDisk[d] = byDisk[d][:0]
	}
	clear(st.pFrameOf)
	frameOf := st.pFrameOf                  // global source block -> frame
	blockOf := make([]int, 0, cfg.Frames()) // frame -> global source block
	for j := 0; j < cfg.M; j++ {
		x := st.invApplier.Apply(base | uint64(j))
		sb := cfg.BlockIndex(x)
		if _, seen := frameOf[sb]; seen {
			continue
		}
		nextFrame := len(frameOf)
		if nextFrame == cfg.Frames() {
			return loadPlan{}, fmt.Errorf("engine: target memoryload %d draws from more than M/B=%d source blocks", tml, cfg.Frames())
		}
		frameOf[sb] = nextFrame
		blockOf = append(blockOf, sb)
		disk := cfg.DiskOf(x)
		byDisk[disk] = append(byDisk[disk], pdm.BlockIO{
			Disk:  disk,
			Block: cfg.StripeOf(x),
			Frame: nextFrame,
		})
	}
	if len(frameOf) != cfg.Frames() {
		return loadPlan{}, fmt.Errorf("engine: target memoryload %d draws from %d source blocks, want M/B=%d", tml, len(frameOf), cfg.Frames())
	}
	for disk, blocks := range byDisk {
		if len(blocks) != cfg.FramesPerDisk() {
			return loadPlan{}, fmt.Errorf("engine: inverse-MLD balance violated: disk %d supplies %d blocks, want M/BD=%d", disk, len(blocks), cfg.FramesPerDisk())
		}
	}
	// Gather with M/BD independent parallel reads.
	reads := st.pReads
	for wave := 0; wave < cfg.FramesPerDisk(); wave++ {
		for disk := range reads[wave] {
			reads[wave][disk] = byDisk[disk][wave]
		}
	}
	return loadPlan{reads: reads, ctx: blockOf}, nil
}

func (st *invMLDStrategy) scatter(tml int, plan loadPlan, in, out *pdm.Buffer) ([][]pdm.BlockIO, error) {
	cfg := st.cfg
	b := cfg.LgB()
	mask := uint64(cfg.M - 1)
	blockOf := plan.ctx.([]int)
	dst := out.Records()
	// The record read into frame f at offset off has source address
	// (block base of f) | off; route it to its target offset within this
	// memoryload.
	for f := 0; f < cfg.Frames(); f++ {
		frame := in.Frame(f)
		blockBase := uint64(blockOf[f]) << uint(b)
		if st.run > 1 {
			// Run-coalescing kernel: within a frame the source offsets are
			// consecutive, so target addresses advance in lockstep across
			// each aligned run (run <= B keeps every run inside one frame),
			// and the escape check per run covers all its records.
			for off := 0; off < len(frame); off += st.run {
				y := st.applier.Apply(blockBase | uint64(off))
				if cfg.MemoryloadOf(y) != tml {
					return nil, fmt.Errorf("engine: record %d escaped target memoryload %d", blockBase|uint64(off), tml)
				}
				d := int(y & mask)
				copy(dst[d:d+st.run], frame[off:off+st.run])
			}
			continue
		}
		for off, r := range frame {
			y := st.applier.Apply(blockBase | uint64(off))
			if cfg.MemoryloadOf(y) != tml {
				return nil, fmt.Errorf("engine: record %d escaped target memoryload %d", blockBase|uint64(off), tml)
			}
			dst[y&mask] = r
		}
	}
	// Emit the memoryload with striped writes.
	return retargetStriped(&st.writeOps, cfg, tml), nil
}
