package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/pdm"
)

// NaivePermute performs an arbitrary permutation by gathering each target
// block's records directly from their source blocks, one group of D target
// blocks at a time. Its cost is Theta(N/D + N/BD) parallel I/Os — the N/D
// term of the paper's general-permutation bound
// min{N/D, (N/BD) lg(N/B)/lg(M/B)} — so it beats sorting only when the
// block size B is small.
//
// Memory use: D output frames plus up to D input frames per read wave,
// which requires M >= 2BD. Tests use it as an independently implemented
// oracle for every other engine path.
func NaivePermute(ctx context.Context, sys *pdm.System, targetOf func(uint64) uint64, opt Options) (*Result, error) {
	cfg := sys.Config()
	if cfg.Frames() < 2*cfg.D {
		return nil, fmt.Errorf("engine: naive permute needs M >= 2BD (M=%d, BD=%d)", cfg.M, cfg.B*cfg.D)
	}
	before := sys.Stats().ParallelIOs()

	// Invert the mapping once (host-side bookkeeping, not data movement):
	// srcOf[y] is the source address of the record that belongs at y.
	srcOf := make([]uint64, cfg.N)
	for x := uint64(0); x < uint64(cfg.N); x++ {
		y := targetOf(x)
		if y >= uint64(cfg.N) {
			return nil, fmt.Errorf("engine: targetOf(%d) = %d out of range", x, y)
		}
		srcOf[y] = x
	}

	if err := runPass(ctx, sys, newNaiveStrategy(cfg, srcOf), opt); err != nil {
		return nil, err
	}
	return &Result{
		Passes:      1,
		ParallelIOs: sys.Stats().ParallelIOs() - before,
	}, nil
}

// naivePull is one record movement within a round: input-buffer index to
// output-buffer index.
type naivePull struct{ inIdx, outIdx int }

// naiveCtx is the per-wave plan handed from prepare to scatter.
type naiveCtx struct {
	pulls []naivePull
	write []pdm.BlockIO // the round's parallel write, on its last wave only
}

// naiveStrategy treats each read wave of the naive gather as one load of
// the pass runner. A round assembles D consecutive target blocks
// (consecutive block indices land on consecutive disks); its source blocks
// are fetched in waves of at most one block per disk, each wave's records
// are pulled into the output frames, and after the round's last wave the D
// assembled blocks go out in a single parallel write.
type naiveStrategy struct {
	cfg       pdm.Config
	srcOf     []uint64
	wavesIn   []int // waves per round: max per-disk distinct source blocks
	firstLoad []int // firstLoad[round] = global load index of the round's first wave

	// Reader-local cache of the round currently being planned. prepare is
	// invoked in load order on a single goroutine, so the cache needs no
	// locking; scatter sees per-wave state only through naiveCtx.
	round     int
	waveIOs   [][]pdm.BlockIO
	wavePulls [][]naivePull
}

func newNaiveStrategy(cfg pdm.Config, srcOf []uint64) *naiveStrategy {
	rounds := cfg.Blocks() / cfg.D
	st := &naiveStrategy{
		cfg:       cfg,
		srcOf:     srcOf,
		wavesIn:   make([]int, rounds),
		firstLoad: make([]int, rounds+1),
		round:     -1,
	}
	// Count each round's waves up front so loads() is known before any I/O:
	// a wave drains one source block per disk, so a round needs as many
	// waves as its most-loaded disk has distinct source blocks.
	seen := make([]int, cfg.Blocks())
	for i := range seen {
		seen[i] = -1
	}
	perDisk := make([]int, cfg.D)
	for round := 0; round < rounds; round++ {
		for d := range perDisk {
			perDisk[d] = 0
		}
		st.forEachRecord(round, func(_, _ int, x uint64) {
			sb := cfg.BlockIndex(x)
			if seen[sb] != round {
				seen[sb] = round
				perDisk[sb&(cfg.D-1)]++
			}
		})
		waves := 0
		for _, c := range perDisk {
			if c > waves {
				waves = c
			}
		}
		st.wavesIn[round] = waves
		st.firstLoad[round+1] = st.firstLoad[round] + waves
	}
	return st
}

// forEachRecord visits every record of the round's D target blocks as
// (outFrame, outOffset, sourceAddress).
func (st *naiveStrategy) forEachRecord(round int, visit func(t, off int, x uint64)) {
	cfg := st.cfg
	for t := 0; t < cfg.D; t++ {
		tb := round*cfg.D + t
		for off := 0; off < cfg.B; off++ {
			y := uint64(tb)<<uint(cfg.LgB()) | uint64(off)
			visit(t, off, st.srcOf[y])
		}
	}
}

func (st *naiveStrategy) kind() string { return "naive" }

func (st *naiveStrategy) kernel() string { return "pull" }

func (st *naiveStrategy) loads() int { return st.firstLoad[len(st.wavesIn)] }

// buildRound computes the round's wave schedule: ordered per-disk source
// block lists (first-need order, so the schedule is deterministic), frame
// assignments within each wave, and the pulls each wave satisfies.
func (st *naiveStrategy) buildRound(round int) {
	cfg := st.cfg
	type blockPulls struct {
		sb    int
		pulls []naivePull // outIdx filled in; inIdx relative to block start
	}
	byBlock := make(map[int]*blockPulls)
	perDisk := make([][]*blockPulls, cfg.D)
	st.forEachRecord(round, func(t, off int, x uint64) {
		sb := cfg.BlockIndex(x)
		bp := byBlock[sb]
		if bp == nil {
			bp = &blockPulls{sb: sb}
			byBlock[sb] = bp
			disk := sb & (cfg.D - 1) // low d bits of the block index
			perDisk[disk] = append(perDisk[disk], bp)
		}
		bp.pulls = append(bp.pulls, naivePull{
			inIdx:  cfg.Offset(x), // frame base added at wave assembly
			outIdx: t*cfg.B + off,
		})
	})
	waves := st.wavesIn[round]
	st.waveIOs = make([][]pdm.BlockIO, waves)
	st.wavePulls = make([][]naivePull, waves)
	for w := 0; w < waves; w++ {
		var ios []pdm.BlockIO
		var pulls []naivePull
		for disk := 0; disk < cfg.D; disk++ {
			if w >= len(perDisk[disk]) {
				continue
			}
			bp := perDisk[disk][w]
			frame := len(ios)
			ios = append(ios, pdm.BlockIO{
				Disk:  disk,
				Block: bp.sb >> uint(cfg.LgD()),
				Frame: frame,
			})
			for _, p := range bp.pulls {
				pulls = append(pulls, naivePull{inIdx: frame*cfg.B + p.inIdx, outIdx: p.outIdx})
			}
		}
		st.waveIOs[w] = ios
		st.wavePulls[w] = pulls
	}
	st.round = round
}

func (st *naiveStrategy) prepare(ml int) (loadPlan, error) {
	round := sort.SearchInts(st.firstLoad, ml+1) - 1
	if round != st.round {
		st.buildRound(round)
	}
	wave := ml - st.firstLoad[round]
	ctx := naiveCtx{pulls: st.wavePulls[wave]}
	if wave == st.wavesIn[round]-1 {
		// Write the D assembled target blocks in one parallel write.
		cfg := st.cfg
		ios := make([]pdm.BlockIO, cfg.D)
		for t := 0; t < cfg.D; t++ {
			tb := round*cfg.D + t
			ios[t] = pdm.BlockIO{
				Disk:  tb & (cfg.D - 1),
				Block: tb >> uint(cfg.LgD()),
				Frame: t,
			}
		}
		ctx.write = ios
	}
	return loadPlan{reads: [][]pdm.BlockIO{st.waveIOs[wave]}, ctx: ctx}, nil
}

func (st *naiveStrategy) scatter(_ int, plan loadPlan, in, out *pdm.Buffer) ([][]pdm.BlockIO, error) {
	ctx := plan.ctx.(naiveCtx)
	src, dst := in.Records(), out.Records()
	for _, p := range ctx.pulls {
		dst[p.outIdx] = src[p.inIdx]
	}
	if ctx.write == nil {
		return nil, nil
	}
	return [][]pdm.BlockIO{ctx.write}, nil
}
