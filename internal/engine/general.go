package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/pdm"
)

// GeneralPermute performs an arbitrary permutation — any bijection on
// record addresses, BMMC or not — by external merge sort on target
// addresses. This is the general-permutation baseline the paper compares
// against: its cost has the sorting shape Theta((N/BD) * lg(N/M) / lg(k)),
// with fan-in k = M/BD - 1 input runs per merge.
//
// The paper cites the Vitter-Shriver randomized and Nodine-Vitter
// deterministic sorts, which achieve fan-in Theta(M/B) using independent
// I/O. This implementation uses striped I/O (fan-in M/BD - 1), the standard
// practical scheme; DESIGN.md documents why the shape comparison survives
// the substitution.
//
// The sort orders records by targetOf(Key), so every record's Key must be
// its current address, as LoadSequential leaves it; the run-formation pass
// refuses, committing nothing, at the first address holding another key.
// targetOf must be a bijection; the last merge pass refuses before its
// commit at the first address that would receive another address's
// record, leaving the stored records as the previous pass committed them,
// like a canceled run. Run formation goes through the pipelined
// pass runner (prefetching the next memoryload and writing the previous
// one while the current one sorts); the merge passes stream stripes, stay
// sequential and commit once each.
func GeneralPermute(ctx context.Context, sys *pdm.System, targetOf func(uint64) uint64, opt Options) (*Result, error) {
	cfg := sys.Config()
	stripeRecs := cfg.B * cfg.D
	fanIn := cfg.M/stripeRecs - 1
	if fanIn < 2 {
		return nil, fmt.Errorf("engine: merge sort needs M >= 3BD (M=%d, BD=%d)", cfg.M, stripeRecs)
	}
	before := sys.Stats().ParallelIOs()
	passes := 0
	totalPasses := 1
	for rs := cfg.StripesPerMemoryload(); rs < cfg.Stripes(); rs *= fanIn {
		totalPasses++
	}
	// stamp fixes a pass's coordinates onto its progress events, so the
	// sort pass and every merge pass report against the same run total.
	stamp := func(pass int) Options {
		o := opt
		if opt.Progress != nil {
			base := opt.Progress
			o.Progress = func(ev PassEvent) {
				ev.Pass, ev.Passes = pass, totalPasses
				base(ev)
			}
		}
		return o
	}

	// Run formation: sort each memoryload in memory; one pass.
	if err := runPass(ctx, sys, &sortStrategy{cfg: cfg, targetOf: targetOf}, stamp(1)); err != nil {
		return nil, err
	}
	passes++

	// Merge passes: fanIn-way merges at stripe granularity until one run
	// spans all stripes, every merge pass through one Buffer.
	runStripes := cfg.StripesPerMemoryload()
	buf := sys.AcquireBuffer()
	for runStripes < cfg.Stripes() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := mergePass(ctx, sys, buf, targetOf, runStripes, fanIn, stamp(passes+1)); err != nil {
			return nil, err
		}
		sys.Commit()
		runStripes *= fanIn
		passes++
	}
	return &Result{
		Passes:      passes,
		ParallelIOs: sys.Stats().ParallelIOs() - before,
	}, nil
}

// sortStrategy is the run-formation stage of the merge sort as a pass
// strategy: striped reads of each memoryload, a check that every record's
// Key is its address, an in-memory sort by target address, and striped
// writes back to the same memoryload position.
type sortStrategy struct {
	cfg      pdm.Config
	targetOf func(uint64) uint64
}

func (st *sortStrategy) kind() string { return "sort" }

func (st *sortStrategy) kernel() string { return "sort" }

func (st *sortStrategy) loads() int { return st.cfg.Memoryloads() }

func (st *sortStrategy) prepare(ml int) (loadPlan, error) {
	return loadPlan{reads: stripedOps(st.cfg, ml)}, nil
}

func (st *sortStrategy) scatter(ml int, _ loadPlan, in, out *pdm.Buffer) ([][]pdm.BlockIO, error) {
	// Load ml holds addresses ml*M onward in buffer order.
	base := uint64(ml) * uint64(st.cfg.M)
	for i, r := range in.Records() {
		if x := base + uint64(i); r.Key != x {
			return nil, fmt.Errorf("engine: merge sort needs every record's Key to be its address, but address %d holds key %d", x, r.Key)
		}
	}
	recs := out.Records()
	copy(recs, in.Records())
	sort.Slice(recs, func(i, j int) bool {
		return st.targetOf(recs[i].Key) < st.targetOf(recs[j].Key)
	})
	return stripedOps(st.cfg, ml), nil
}

// mergePass merges every group of fanIn consecutive runs (runStripes
// stripes each) of the stored records into single runs in the other
// portion through buf, reading and writing each stripe exactly once; the
// caller commits them. ctx
// is checked and a progress event emitted between merge groups — the
// "memoryload" of a merge pass, so WithProgress keeps reporting through
// the merge phase of a general permutation.
func mergePass(ctx context.Context, sys *pdm.System, buf *pdm.Buffer, targetOf func(uint64) uint64, runStripes, fanIn int, opt Options) error {
	cfg := sys.Config()
	// One group consumes fanIn*runStripes stripes (the loop steps `group`
	// by fanIn); the last group may be partial, so round up once over the
	// whole stripe range — runStripes need not divide Stripes evenly.
	groups := (cfg.Stripes() + runStripes*fanIn - 1) / (runStripes * fanIn)
	opt.emit("merge", "merge", 0, groups, 0)
	done := 0
	for group := 0; group*runStripes < cfg.Stripes(); group += fanIn {
		if err := ctx.Err(); err != nil {
			return err
		}
		first := group * runStripes
		var runs []*runCursor
		for r := 0; r < fanIn; r++ {
			start := first + r*runStripes
			if start >= cfg.Stripes() {
				break
			}
			end := start + runStripes
			if end > cfg.Stripes() {
				end = cfg.Stripes()
			}
			runs = append(runs, &runCursor{next: start, end: end, frame0: r * cfg.D})
		}
		last := runs[len(runs)-1].end
		if err := mergeRuns(sys, buf, targetOf, runs, first, groups == 1); err != nil {
			return err
		}
		done++
		// Each of the group's stripes was read once and written once.
		opt.emit("merge", "merge", done, groups, 2*(last-first))
	}
	return nil
}

// runCursor streams one sorted run stripe by stripe through a dedicated
// window of D buffer frames.
type runCursor struct {
	next, end int // stripes remaining: [next, end)
	frame0    int // first of D frames holding the current stripe
	pos, lim  int // consumed/valid records, as indices into the buffer
}

func (rc *runCursor) refill(sys *pdm.System, buf *pdm.Buffer) error {
	if rc.next >= rc.end {
		rc.pos, rc.lim = 0, 0
		return nil
	}
	if err := sys.ReadStripe(rc.next, rc.frame0, buf); err != nil {
		return err
	}
	rc.next++
	rc.pos = rc.frame0 * sys.Config().B
	rc.lim = rc.pos + sys.Config().B*sys.Config().D
	return nil
}

func (rc *runCursor) head(buf *pdm.Buffer) (pdm.Record, bool) {
	if rc.pos >= rc.lim {
		return pdm.Record{}, false
	}
	return buf.Records()[rc.pos], true
}

// mergeRuns merges the given runs into consecutive output stripes starting
// at outStripe in the other portion. The output stripe occupies the D
// frames of buf after the run windows. The final merge writes every
// address in order, so it also checks that address y receives the record
// bound for y, which holds for every y exactly when targetOf is a
// bijection.
func mergeRuns(sys *pdm.System, buf *pdm.Buffer, targetOf func(uint64) uint64, runs []*runCursor, outStripe int, final bool) error {
	cfg := sys.Config()
	stripeRecs := cfg.B * cfg.D
	outFrame0 := len(runs) * cfg.D
	out := buf.Records()[outFrame0*cfg.B : outFrame0*cfg.B+stripeRecs]
	outPos := 0

	for _, rc := range runs {
		if err := rc.refill(sys, buf); err != nil {
			return err
		}
	}
	for {
		best := -1
		var bestKey uint64
		for i, rc := range runs {
			r, ok := rc.head(buf)
			if !ok {
				continue
			}
			if k := targetOf(r.Key); best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			break
		}
		if y := uint64(outStripe*stripeRecs + outPos); final && bestKey != y {
			return fmt.Errorf("engine: targetOf is not a bijection: address %d receives the record bound for %d", y, bestKey)
		}
		rc := runs[best]
		r, _ := rc.head(buf)
		out[outPos] = r
		outPos++
		rc.pos++
		if rc.pos >= rc.lim {
			if err := rc.refill(sys, buf); err != nil {
				return err
			}
		}
		if outPos == stripeRecs {
			if err := sys.WriteStripe(outStripe, outFrame0, buf); err != nil {
				return err
			}
			outStripe++
			outPos = 0
		}
	}
	if outPos != 0 {
		return fmt.Errorf("engine: merge output not stripe-aligned (%d records left)", outPos)
	}
	return nil
}
