package oocfft

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/pdm"
)

func directDFT(x []complex128, sign float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := sign * 2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

func randomSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	for _, cfg := range []pdm.Config{
		{N: 1 << 8, D: 2, B: 4, M: 1 << 5},
		{N: 1 << 10, D: 4, B: 8, M: 1 << 7},
		{N: 1 << 9, D: 1, B: 8, M: 1 << 6}, // single disk, odd split N1 != N2
	} {
		sys, err := pdm.NewMemSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSignal(rng, cfg.N)
		if err := LoadSamples(sys, x); err != nil {
			t.Fatal(err)
		}
		res, err := FFT(context.Background(), sys, false)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		got, err := DumpSamples(sys)
		if err != nil {
			t.Fatal(err)
		}
		want := directDFT(x, -1)
		if e := maxErr(got, want); e > 1e-8*float64(cfg.N) {
			t.Fatalf("%v: max error %g", cfg, e)
		}
		// Cost structure: exactly two compute passes plus three transposes.
		if res.ComputePassIOs != 2*cfg.PassIOs() {
			t.Errorf("%v: compute I/Os = %d, want %d", cfg, res.ComputePassIOs, 2*cfg.PassIOs())
		}
		if res.TransposeIOs <= 0 || res.ParallelIOs != res.TransposeIOs+res.ComputePassIOs {
			t.Errorf("%v: inconsistent I/O accounting %+v", cfg, res)
		}
		sys.Close()
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	x := randomSignal(rng, cfg.N)
	if err := LoadSamples(sys, x); err != nil {
		t.Fatal(err)
	}
	if _, err := FFT(context.Background(), sys, false); err != nil {
		t.Fatal(err)
	}
	if _, err := FFT(context.Background(), sys, true); err != nil {
		t.Fatal(err)
	}
	got, err := DumpSamples(sys)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(got, x); e > 1e-10*float64(cfg.N) {
		t.Fatalf("roundtrip max error %g", e)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	cfg := pdm.Config{N: 1 << 8, D: 2, B: 4, M: 1 << 5}
	sys, _ := pdm.NewMemSystem(cfg)
	defer sys.Close()
	x := randomSignal(rng, cfg.N)
	if err := LoadSamples(sys, x); err != nil {
		t.Fatal(err)
	}
	if _, err := FFT(context.Background(), sys, false); err != nil {
		t.Fatal(err)
	}
	spec, _ := DumpSamples(sys)
	var eT, eF float64
	for i := range x {
		eT += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		eF += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
	}
	if math.Abs(eF-float64(cfg.N)*eT)/(float64(cfg.N)*eT) > 1e-10 {
		t.Fatalf("Parseval violated: freq energy %g, N*time energy %g", eF, float64(cfg.N)*eT)
	}
}

func TestFFTImpulseAndTone(t *testing.T) {
	cfg := pdm.Config{N: 1 << 8, D: 2, B: 4, M: 1 << 5}
	sys, _ := pdm.NewMemSystem(cfg)
	defer sys.Close()
	// Impulse at 0 -> flat spectrum of ones.
	x := make([]complex128, cfg.N)
	x[0] = 1
	if err := LoadSamples(sys, x); err != nil {
		t.Fatal(err)
	}
	if _, err := FFT(context.Background(), sys, false); err != nil {
		t.Fatal(err)
	}
	spec, _ := DumpSamples(sys)
	for k, v := range spec {
		if cmplx.Abs(v-1) > 1e-9 {
			t.Fatalf("impulse spectrum bin %d = %v", k, v)
		}
	}
	// Pure tone at bin 5 (exp(+2*pi*i*5j/N) under the e^{-i...} forward
	// convention) -> single peak of magnitude N.
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*5*float64(i)/float64(cfg.N)))
	}
	if err := LoadSamples(sys, x); err != nil {
		t.Fatal(err)
	}
	if _, err := FFT(context.Background(), sys, false); err != nil {
		t.Fatal(err)
	}
	spec, _ = DumpSamples(sys)
	for k, v := range spec {
		want := complex(0, 0)
		if k == 5 {
			want = complex(float64(cfg.N), 0)
		}
		if cmplx.Abs(v-want) > 1e-7 {
			t.Fatalf("tone spectrum bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestFFTErrors(t *testing.T) {
	// N > M^2 must be rejected.
	cfg := pdm.Config{N: 1 << 9, D: 2, B: 2, M: 1 << 4}
	sys, _ := pdm.NewMemSystem(cfg)
	defer sys.Close()
	if _, err := FFT(context.Background(), sys, false); err == nil {
		t.Fatal("N > M^2 accepted")
	}
	// Sample count mismatch.
	if err := LoadSamples(sys, make([]complex128, 3)); err == nil {
		t.Fatal("wrong sample count accepted")
	}
}

// TestComputePassStopsOnCancel: a compute pass checks ctx before each
// memoryload, so a cancel during the first of four loads costs exactly
// that load's reads and writes and leaves the portion roles unswapped.
func TestComputePassStopsOnCancel(t *testing.T) {
	cfg := pdm.Config{N: 1 << 9, D: 2, B: 8, M: 1 << 7} // N = 4M
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := sys.Source()
	err = computePass(ctx, sys, 16, func(row int, data []complex128) {
		if row == 0 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("computePass after cancel: %v, want context.Canceled", err)
	}
	if got, want := sys.Stats().ParallelIOs(), 2*cfg.M/(cfg.B*cfg.D); got != want {
		t.Errorf("canceled pass moved %d parallel I/Os, want one memoryload's %d", got, want)
	}
	if sys.Source() != src {
		t.Error("canceled pass swapped the portions")
	}
}

func TestEncodeDecodeSample(t *testing.T) {
	s := complex(3.14, -2.71)
	if got := DecodeSample(EncodeSample(s)); got != s {
		t.Fatalf("roundtrip %v", got)
	}
}

func BenchmarkOutOfCoreFFT(b *testing.B) {
	cfg := pdm.Config{N: 1 << 14, D: 8, B: 8, M: 1 << 9}
	rng := rand.New(rand.NewSource(1))
	x := randomSignal(rng, cfg.N)
	var ios int
	for i := 0; i < b.N; i++ {
		sys, err := pdm.NewMemSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := LoadSamples(sys, x); err != nil {
			b.Fatal(err)
		}
		res, err := FFT(context.Background(), sys, false)
		if err != nil {
			b.Fatal(err)
		}
		ios = res.ParallelIOs
		sys.Close()
	}
	b.ReportMetric(float64(ios), "pios")
}
