// Package oocmatrix implements out-of-core dense matrices on the parallel
// disk model — the paper's motivating application ("matrices and vectors
// exceed the memory provided by even the largest supercomputers"). A matrix
// of float64 values lives row-major on its own disk system, one value per
// record.
//
// Two operations showcase BMMC permutations as the data-movement engine:
//
//   - Transpose is the classic BMMC bit rotation (Section 1).
//   - Multiply first converts both operands from row-major to tile-major
//     layout. For power-of-two shapes that conversion is a BPC permutation
//     (it permutes the address bit fields [j_lo | j_hi | i_lo | i_hi] to
//     [j_lo | i_lo | j_hi | i_hi]), so the library performs it in
//     O((N/BD)(1 + lg t/lg(M/B))) parallel I/Os; afterwards every t x t
//     tile is contiguous and the blocked multiply streams tiles with
//     striped reads.
//
// Memory accounting: the three matrices hold one t x t tile each during the
// multiply, with 3t^2 <= M in total; each tile streams stripe by stripe
// through a Buffer taken from its own matrix's System.
package oocmatrix

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// Matrix is a 2^lgR x 2^lgS dense matrix stored row-major on a parallel
// disk system: the value at (i, j) lives at record address i*2^lgS + j,
// with the float64 bits in Key.
type Matrix struct {
	sys        *pdm.System
	lgR, lgS   int
	tileMajor  bool // true while the layout is tile-major
	lgTileSide int  // tile side when tileMajor
}

// New allocates a zero matrix of the given shape over a RAM-backed disk
// system with the given model parameters. cfg.N must equal 2^(lgR+lgS).
func New(cfg pdm.Config, lgR, lgS int) (*Matrix, error) {
	if cfg.N != 1<<uint(lgR+lgS) {
		return nil, fmt.Errorf("oocmatrix: N = %d does not match 2^(%d+%d)", cfg.N, lgR, lgS)
	}
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &Matrix{sys: sys, lgR: lgR, lgS: lgS}, nil
}

// Close releases the backing disks.
func (m *Matrix) Close() error { return m.sys.Close() }

// Rows returns the row count 2^lgR.
func (m *Matrix) Rows() int { return 1 << uint(m.lgR) }

// Cols returns the column count 2^lgS.
func (m *Matrix) Cols() int { return 1 << uint(m.lgS) }

// Stats returns the accumulated I/O statistics of the matrix's disks.
func (m *Matrix) Stats() pdm.Stats { return m.sys.Stats() }

// Load fills the matrix from values in row-major order (setup; not counted
// as I/O).
func (m *Matrix) Load(values []float64) error {
	if m.tileMajor {
		return fmt.Errorf("oocmatrix: matrix is in tile-major layout")
	}
	cfg := m.sys.Config()
	if len(values) != cfg.N {
		return fmt.Errorf("oocmatrix: %d values, want %d", len(values), cfg.N)
	}
	recs := make([]pdm.Record, cfg.N)
	for i, v := range values {
		recs[i] = pdm.Record{Key: math.Float64bits(v)}
	}
	return m.sys.LoadRecords(m.sys.Source(), recs)
}

// Dump returns the values in row-major order (not counted as I/O).
func (m *Matrix) Dump() ([]float64, error) {
	if m.tileMajor {
		return nil, fmt.Errorf("oocmatrix: matrix is in tile-major layout")
	}
	recs, err := m.sys.DumpRecords(m.sys.Source())
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = math.Float64frombits(r.Key)
	}
	return out, nil
}

// At reads a single element (diagnostic; not counted as I/O).
func (m *Matrix) At(i, j int) (float64, error) {
	if m.tileMajor {
		return 0, fmt.Errorf("oocmatrix: matrix is in tile-major layout")
	}
	r, err := m.sys.RecordAt(m.sys.Source(), uint64(i)<<uint(m.lgS)|uint64(j))
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(r.Key), nil
}

// Transpose transposes the matrix in place on disk using the BMMC
// rotation permutation, swapping the row and column counts. Cancelling
// ctx aborts between memoryloads with the layout metadata unchanged.
func (m *Matrix) Transpose(ctx context.Context) error {
	if m.tileMajor {
		return fmt.Errorf("oocmatrix: transpose requires row-major layout")
	}
	if err := m.permute(ctx, perm.Transpose(m.lgR, m.lgS)); err != nil {
		return err
	}
	m.lgR, m.lgS = m.lgS, m.lgR
	return nil
}

// permute performs p on the matrix's disks under the paper's dispatch
// policy.
func (m *Matrix) permute(ctx context.Context, p perm.BMMC) error {
	cfg := m.sys.Config()
	_, plan, err := factor.Dispatch(p, cfg.LgB(), cfg.LgM(), false)
	if err != nil {
		return err
	}
	_, err = engine.RunPlan(ctx, m.sys, plan, engine.DefaultOptions())
	return err
}

// tileMajorPerm returns the BPC permutation converting the row-major
// layout to tile-major with 2^lt x 2^lt tiles: address bit fields move from
// [j_lo(lt) | j_hi | i_lo(lt) | i_hi] to [j_lo | i_lo | j_hi | i_hi].
func tileMajorPerm(lgR, lgS, lt int) (perm.BMMC, error) {
	n := lgR + lgS
	pi := make([]int, n)
	t := 0
	for k := 0; k < lt; k++ { // j_lo stays lowest
		pi[t] = k
		t++
	}
	for k := 0; k < lt; k++ { // i_lo next (from position lgS+k)
		pi[t] = lgS + k
		t++
	}
	for k := lt; k < lgS; k++ { // j_hi
		pi[t] = k
		t++
	}
	for k := lt; k < lgR; k++ { // i_hi
		pi[t] = lgS + k
		t++
	}
	return perm.BitPermutation(pi, 0)
}

// toTileMajor converts the layout; lt is the lg of the tile side.
func (m *Matrix) toTileMajor(ctx context.Context, lt int) error {
	p, err := tileMajorPerm(m.lgR, m.lgS, lt)
	if err != nil {
		return err
	}
	if err := m.permute(ctx, p); err != nil {
		return err
	}
	m.tileMajor, m.lgTileSide = true, lt
	return nil
}

// toRowMajor converts back.
func (m *Matrix) toRowMajor(ctx context.Context) error {
	p, err := tileMajorPerm(m.lgR, m.lgS, m.lgTileSide)
	if err != nil {
		return err
	}
	if err := m.permute(ctx, p.Inverse()); err != nil {
		return err
	}
	m.tileMajor = false
	return nil
}

// MultiplyResult reports the I/O cost of an out-of-core multiply, split
// into the BMMC layout conversions and the tile streaming.
type MultiplyResult struct {
	LayoutIOs int // BMMC tile-major conversions (A, B in; C out)
	StreamIOs int // tile reads and writes during the blocked multiply
}

// ParallelIOs returns the total.
func (r MultiplyResult) ParallelIOs() int { return r.LayoutIOs + r.StreamIOs }

// Multiply computes C = A * B out of core and returns C with the same
// model parameters as A. Shapes must agree (A: R x S, B: S x T) and every
// dimension must be at least the tile side, which is chosen so that three
// tiles fit in memory: t = 2^floor((lg M - 2)/2). Cancelling ctx aborts
// between memoryloads of the layout conversions and between output tiles
// of the blocked multiply; operands may be left tile-major, so treat the
// matrices as spent on error.
func Multiply(ctx context.Context, a, b *Matrix) (*Matrix, MultiplyResult, error) {
	var res MultiplyResult
	if a.lgS != b.lgR {
		return nil, res, fmt.Errorf("oocmatrix: shape mismatch %dx%d * %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	cfgA := a.sys.Config()
	lt := (cfgA.LgM() - 2) / 2
	if lt < 1 {
		return nil, res, fmt.Errorf("oocmatrix: memory too small for tiling (M = %d)", cfgA.M)
	}
	for _, lg := range []int{a.lgR, a.lgS, b.lgS} {
		if lg < lt {
			lt = lg
		}
	}
	tile := 1 << uint(lt)
	tileRecs := tile * tile
	if tileRecs < cfgA.B*cfgA.D {
		return nil, res, fmt.Errorf("oocmatrix: tile of %d records smaller than a stripe (%d)", tileRecs, cfgA.B*cfgA.D)
	}

	cfgC := cfgA
	cfgC.N = 1 << uint(a.lgR+b.lgS)
	c, err := New(cfgC, a.lgR, b.lgS)
	if err != nil {
		return nil, res, err
	}

	// Convert operands to tile-major layout (BPC permutations).
	mark := ioTotal(a, b, c)
	if err := a.toTileMajor(ctx, lt); err != nil {
		c.Close()
		return nil, res, err
	}
	if err := b.toTileMajor(ctx, lt); err != nil {
		c.Close()
		return nil, res, err
	}
	res.LayoutIOs = ioTotal(a, b, c) - mark

	// Blocked multiply over contiguous tiles.
	mark = ioTotal(a, b, c)
	if err := multiplyTiles(ctx, a, b, c, lt); err != nil {
		c.Close()
		return nil, res, err
	}
	res.StreamIOs = ioTotal(a, b, c) - mark

	// Restore layouts.
	mark = ioTotal(a, b, c)
	if err := a.toRowMajor(ctx); err != nil {
		c.Close()
		return nil, res, err
	}
	if err := b.toRowMajor(ctx); err != nil {
		c.Close()
		return nil, res, err
	}
	c.tileMajor, c.lgTileSide = true, lt
	if err := c.toRowMajor(ctx); err != nil {
		c.Close()
		return nil, res, err
	}
	res.LayoutIOs += ioTotal(a, b, c) - mark
	return c, res, nil
}

func ioTotal(ms ...*Matrix) int {
	total := 0
	for _, m := range ms {
		total += m.sys.Stats().ParallelIOs()
	}
	return total
}

// multiplyTiles runs the blocked multiply with all three matrices in
// tile-major layout: C[I,J] += A[I,K] * B[K,J] over tile indices. ctx is
// checked before each output tile.
func multiplyTiles(ctx context.Context, a, b, c *Matrix, lt int) error {
	tile := 1 << uint(lt)
	tileRecs := tile * tile
	rowTilesA := a.Rows() >> uint(lt) // tiles per column of A (index I)
	colTilesA := a.Cols() >> uint(lt) // tiles per row of A (index K)
	colTilesB := b.Cols() >> uint(lt) // tiles per row of B (index J)

	ta := make([]float64, tileRecs)
	tb := make([]float64, tileRecs)
	tc := make([]float64, tileRecs)
	bufA, bufB, bufC := a.sys.AcquireBuffer(), b.sys.AcquireBuffer(), c.sys.AcquireBuffer()
	for ti := 0; ti < rowTilesA; ti++ {
		for tj := 0; tj < colTilesB; tj++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for i := range tc {
				tc[i] = 0
			}
			for tk := 0; tk < colTilesA; tk++ {
				if err := readTile(a, (ti*colTilesA+tk)*tileRecs, ta, bufA); err != nil {
					return err
				}
				if err := readTile(b, (tk*colTilesB+tj)*tileRecs, tb, bufB); err != nil {
					return err
				}
				for i := 0; i < tile; i++ {
					for k := 0; k < tile; k++ {
						aik := ta[i*tile+k]
						if aik == 0 {
							continue
						}
						brow := tb[k*tile:]
						crow := tc[i*tile:]
						for j := 0; j < tile; j++ {
							crow[j] += aik * brow[j]
						}
					}
				}
			}
			if err := writeTile(c, (ti*colTilesB+tj)*tileRecs, tc, bufC); err != nil {
				return err
			}
		}
	}
	return nil
}

// readTile streams the contiguous tile starting at record address base
// into vals using striped reads through buf.
func readTile(m *Matrix, base int, vals []float64, buf *pdm.Buffer) error {
	cfg := m.sys.Config()
	stripeRecs := cfg.B * cfg.D
	for off := 0; off < len(vals); off += stripeRecs {
		stripe := (base + off) / stripeRecs
		if err := m.sys.ReadStripe(m.sys.Source(), stripe, 0, buf); err != nil {
			return err
		}
		for i := 0; i < stripeRecs; i++ {
			vals[off+i] = math.Float64frombits(buf.Records()[i].Key)
		}
	}
	return nil
}

// writeTile stores vals as the contiguous tile starting at record address
// base, using striped writes through buf. C accumulates in its source
// portion.
func writeTile(m *Matrix, base int, vals []float64, buf *pdm.Buffer) error {
	cfg := m.sys.Config()
	stripeRecs := cfg.B * cfg.D
	for off := 0; off < len(vals); off += stripeRecs {
		for i := 0; i < stripeRecs; i++ {
			buf.Records()[i] = pdm.Record{Key: math.Float64bits(vals[off+i])}
		}
		stripe := (base + off) / stripeRecs
		if err := m.sys.WriteStripe(m.sys.Source(), stripe, 0, buf); err != nil {
			return err
		}
	}
	return nil
}
