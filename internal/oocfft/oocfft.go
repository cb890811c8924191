// Package oocfft implements an out-of-core fast Fourier transform on the
// parallel disk model, the workload the paper's introduction motivates for
// BMMC permutations. It uses Bailey's four-step decomposition N = N1*N2:
//
//	X[k2 + N2*k1] = sum_{j1} w_N^{j1*k2} w_{N1}^{j1*k1}
//	                 sum_{j2} x[j1 + N1*j2] w_{N2}^{j2*k2}
//
// which becomes, on disk:
//
//  1. transpose (j1 + N1*j2  ->  j2 + N2*j1)       — a BMMC bit rotation
//  2. one pass of in-memory N2-point FFTs + twiddle
//  3. transpose back (j1 + N1*k2)                  — BMMC
//  4. one pass of in-memory N1-point FFTs
//  5. final transpose to natural order (k2 + N2*k1) — BMMC
//
// Every data-movement step is a BMMC permutation executed by the library's
// asymptotically optimal algorithm, so the whole FFT costs
// O((N/BD)(1 + lg min(N1,N2)/lg(M/B))) parallel I/Os per transpose plus
// exactly two compute passes. Complex samples live in records as float64
// bit patterns: the real part in Key, the imaginary part in Tag.
package oocfft

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/pdm"
	"repro/internal/perm"
)

// EncodeSample packs a complex sample into a record.
func EncodeSample(s complex128) pdm.Record {
	return pdm.Record{Key: math.Float64bits(real(s)), Tag: math.Float64bits(imag(s))}
}

// DecodeSample unpacks a record into a complex sample.
func DecodeSample(r pdm.Record) complex128 {
	return complex(math.Float64frombits(r.Key), math.Float64frombits(r.Tag))
}

// LoadSamples stores the samples on the system's source portion (setup;
// not counted as I/O).
func LoadSamples(sys *pdm.System, samples []complex128) error {
	cfg := sys.Config()
	if len(samples) != cfg.N {
		return fmt.Errorf("oocfft: %d samples, want N = %d", len(samples), cfg.N)
	}
	recs := make([]pdm.Record, cfg.N)
	for i, s := range samples {
		recs[i] = EncodeSample(s)
	}
	return sys.LoadRecords(sys.Source(), recs)
}

// DumpSamples reads the samples back in address order (not counted).
func DumpSamples(sys *pdm.System) ([]complex128, error) {
	recs, err := sys.DumpRecords(sys.Source())
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(recs))
	for i, r := range recs {
		out[i] = DecodeSample(r)
	}
	return out, nil
}

// Result reports the cost of one out-of-core FFT.
type Result struct {
	ParallelIOs    int // total parallel I/Os, transposes + compute passes
	TransposeIOs   int // I/Os spent in the three BMMC transposes
	ComputePassIOs int // I/Os spent reading/writing during butterfly passes
}

// FFT transforms the N complex samples stored on sys in place (the result
// ends up on the current source portion in natural frequency order).
// inverse selects the inverse transform, which includes the 1/N scaling.
// Requires N <= M^2 so both four-step factors fit in memory. Cancelling
// ctx aborts between memoryloads of any transpose or compute pass, leaving
// the records in the state after the last completed pass.
func FFT(ctx context.Context, sys *pdm.System, inverse bool) (*Result, error) {
	cfg := sys.Config()
	n, m := cfg.LgN(), cfg.LgM()
	if n > 2*m {
		return nil, fmt.Errorf("oocfft: N = 2^%d exceeds M^2 = 2^%d; deeper recursion not implemented", n, 2*m)
	}
	lgN1 := n / 2
	lgN2 := n - lgN1 // lgN2 >= lgN1; both <= m
	n1, n2 := 1<<uint(lgN1), 1<<uint(lgN2)
	sign := -1.0 // forward transform: exp(-2*pi*i*jk/N)
	if inverse {
		sign = +1.0
	}
	res := &Result{}
	before := sys.Stats().ParallelIOs()

	// Step 1: transpose j1 + N1*j2 -> j2 + N2*j1.
	if err := permute(ctx, sys, perm.RotateBits(n, lgN1)); err != nil {
		return nil, fmt.Errorf("oocfft: transpose 1: %w", err)
	}
	res.TransposeIOs = sys.Stats().ParallelIOs() - before

	// Step 2: N1 rows of length N2, each contiguous; FFT + twiddle.
	scale := 1.0
	if inverse {
		scale = 1.0 / float64(cfg.N)
	}
	err := computePass(ctx, sys, n2, func(row int, data []complex128) {
		fftInPlace(data, sign)
		j1 := row // after step 1, row index is j1
		for k2 := range data {
			angle := sign * 2 * math.Pi * float64(j1) * float64(k2) / float64(cfg.N)
			data[k2] *= cmplx.Exp(complex(0, angle)) * complex(scale, 0)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("oocfft: compute pass 1: %w", err)
	}

	// Step 3: transpose back to j1 + N1*k2.
	mark := sys.Stats().ParallelIOs()
	if err := permute(ctx, sys, perm.RotateBits(n, lgN2)); err != nil {
		return nil, fmt.Errorf("oocfft: transpose 2: %w", err)
	}
	res.TransposeIOs += sys.Stats().ParallelIOs() - mark

	// Step 4: N2 rows of length N1; plain FFTs over j1.
	err = computePass(ctx, sys, n1, func(row int, data []complex128) {
		fftInPlace(data, sign)
	})
	if err != nil {
		return nil, fmt.Errorf("oocfft: compute pass 2: %w", err)
	}

	// Step 5: transpose k1 + N1*k2 -> k2 + N2*k1 (natural order).
	mark = sys.Stats().ParallelIOs()
	if err := permute(ctx, sys, perm.RotateBits(n, lgN1)); err != nil {
		return nil, fmt.Errorf("oocfft: transpose 3: %w", err)
	}
	res.TransposeIOs += sys.Stats().ParallelIOs() - mark

	res.ParallelIOs = sys.Stats().ParallelIOs() - before
	res.ComputePassIOs = res.ParallelIOs - res.TransposeIOs
	return res, nil
}

// permute performs p on sys under the paper's dispatch policy.
func permute(ctx context.Context, sys *pdm.System, p perm.BMMC) error {
	cfg := sys.Config()
	_, plan, err := factor.Dispatch(p, cfg.LgB(), cfg.LgM(), false)
	if err != nil {
		return err
	}
	_, err = engine.RunPlan(ctx, sys, plan, engine.DefaultOptions())
	return err
}

// computePass streams the data through one Buffer a memoryload at a time
// (striped reads, striped writes: an identity MRC pass with computation),
// invoking fn on every contiguous row of rowLen samples. rowLen must
// divide M. ctx is checked before each memoryload; a canceled pass leaves
// the portion roles unswapped.
func computePass(ctx context.Context, sys *pdm.System, rowLen int, fn func(row int, data []complex128)) error {
	cfg := sys.Config()
	if cfg.M%rowLen != 0 {
		return fmt.Errorf("oocfft: row length %d does not divide M = %d", rowLen, cfg.M)
	}
	src, tgt := sys.Source(), sys.Target()
	mem := sys.AcquireBuffer()
	buf := make([]complex128, rowLen)
	spm := cfg.StripesPerMemoryload()
	rowsPerLoad := cfg.M / rowLen
	for ml := 0; ml < cfg.Memoryloads(); ml++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for sw := 0; sw < spm; sw++ {
			if err := sys.ReadStripe(src, ml*spm+sw, sw*cfg.D, mem); err != nil {
				return err
			}
		}
		for r := 0; r < rowsPerLoad; r++ {
			seg := mem.Records()[r*rowLen : (r+1)*rowLen]
			for i, rec := range seg {
				buf[i] = DecodeSample(rec)
			}
			fn(ml*rowsPerLoad+r, buf)
			for i, s := range buf {
				seg[i] = EncodeSample(s)
			}
		}
		for sw := 0; sw < spm; sw++ {
			if err := sys.WriteStripe(tgt, ml*spm+sw, sw*cfg.D, mem); err != nil {
				return err
			}
		}
	}
	sys.SwapPortions()
	return nil
}

// fftInPlace is an iterative radix-2 FFT on a power-of-two-length slice,
// with the given exponent sign (-1 forward, +1 inverse; no scaling).
func fftInPlace(data []complex128, sign float64) {
	n := len(data)
	// Bit-reverse reorder.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			data[i], data[j] = data[j], data[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
	}
	for size := 2; size <= n; size <<= 1 {
		w := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			tw := complex(1, 0)
			for k := 0; k < size/2; k++ {
				a := data[start+k]
				b := data[start+k+size/2] * tw
				data[start+k] = a + b
				data[start+k+size/2] = a - b
				tw *= w
			}
		}
	}
}
