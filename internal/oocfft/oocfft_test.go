package oocfft

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"slices"
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
// that load's reads and writes and commits nothing.
func TestComputePassStopsOnCancel(t *testing.T) {
	cfg := pdm.Config{N: 1 << 9, D: 2, B: 8, M: 1 << 7} // N = 4M
	sys, err := pdm.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gen := sys.Generation()
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
	if sys.Generation() != gen {
		t.Error("canceled pass committed")
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

// allocated reports the bytes fn allocates on the heap, after two
// collections settle what came before.
func allocated(fn func()) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadSamplesHoldsFewChunks: storing 2^20 samples on file storage
// allocates a few 256 KiB chunks, not a second N-record copy of them.
func TestLoadSamplesHoldsFewChunks(t *testing.T) {
	cfg := pdm.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}
	sys, err := pdm.NewSystem(cfg, pdm.FileBackend(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	x := randomSignal(rand.New(rand.NewSource(31)), cfg.N)
	const limit = 4 << 18 // four chunks of 2^14 16-byte records
	var err2 error
	if got := allocated(func() { err2 = LoadSamples(sys, x) }); err2 != nil {
		t.Fatal(err2)
	} else if got > limit {
		t.Errorf("LoadSamples of %d samples allocated %d bytes, want at most four chunks (%d)", cfg.N, got, limit)
	}
	for _, i := range []int{0, 1, cfg.N/2 + 3, cfg.N - 1} {
		r, err := sys.RecordAt(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := DecodeSample(r); got != x[i] {
			t.Fatalf("sample %d reads %v, want %v", i, got, x[i])
		}
	}
}

// TestDumpSamplesHoldsFewChunks: reading 2^20 samples back from file
// storage allocates the output slice and a few 256 KiB chunks, not an
// N-record copy of the stored records.
func TestDumpSamplesHoldsFewChunks(t *testing.T) {
	cfg := pdm.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}
	sys, err := pdm.NewSystem(cfg, pdm.FileBackend(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	x := randomSignal(rand.New(rand.NewSource(33)), cfg.N)
	if err := LoadSamples(sys, x); err != nil {
		t.Fatal(err)
	}
	limit := uint64(cfg.N)*16 + 4<<18 // the samples plus four chunks of 2^14 16-byte records
	var got []complex128
	var err2 error
	if n := allocated(func() { got, err2 = DumpSamples(sys) }); err2 != nil {
		t.Fatal(err2)
	} else if n > limit {
		t.Errorf("DumpSamples of %d samples allocated %d bytes, want at most the output plus four chunks (%d)", cfg.N, n, limit)
	}
	if !slices.Equal(got, x) {
		t.Fatal("DumpSamples did not return the loaded samples")
	}
}

// TestChaosLoadSamplesWriteFault: a storage fault part way through a load
// fails it and leaves the previous samples readable, whole.
func TestChaosLoadSamplesWriteFault(t *testing.T) {
	cfg := pdm.Config{N: 1 << 16, D: 4, B: 8, M: 1 << 8} // four chunks
	chunkXfers := (1 << 14) / cfg.B
	fb := pdm.NewFlakyBackend(pdm.MemBackend(), pdm.FlakyOptions{FailAfterN: 2*chunkXfers + chunkXfers/2, Mode: pdm.FaultWriteOnly})
	fb.Disarm()
	sys, err := pdm.NewSystem(cfg, fb)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(32))
	if err := LoadSamples(sys, randomSignal(rng, cfg.N)); err != nil {
		t.Fatal(err)
	}
	before, err := sys.DumpRecords()
	if err != nil {
		t.Fatal(err)
	}

	fb.Arm()
	err = LoadSamples(sys, randomSignal(rng, cfg.N))
	fb.Disarm()
	if !errors.Is(err, pdm.ErrInjectedFault) {
		t.Fatalf("faulted load error = %v, want the injected fault", err)
	}
	after, err := sys.DumpRecords()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, before) {
		t.Fatal("a faulted LoadSamples changed the stored samples")
	}
}
