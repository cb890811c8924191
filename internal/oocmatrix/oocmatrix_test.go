package oocmatrix

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pdm"
	"repro/internal/perm"
)

func randomValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestLoadDumpAt(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	m, err := New(cfg, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rng := rand.New(rand.NewSource(170))
	vals := randomValues(rng, cfg.N)
	if err := m.Load(vals); err != nil {
		t.Fatal(err)
	}
	got, err := m.Dump()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
	v, err := m.At(3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if v != vals[3*32+17] {
		t.Fatalf("At(3,17) = %v, want %v", v, vals[3*32+17])
	}
}

func TestTranspose(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7}
	m, err := New(cfg, 6, 4) // 64 x 16
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rng := rand.New(rand.NewSource(171))
	vals := randomValues(rng, cfg.N)
	if err := m.Load(vals); err != nil {
		t.Fatal(err)
	}
	if err := m.Transpose(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 16 || m.Cols() != 64 {
		t.Fatalf("shape after transpose: %dx%d", m.Rows(), m.Cols())
	}
	got, err := m.Dump()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		for j := 0; j < 16; j++ {
			if got[j*64+i] != vals[i*16+j] {
				t.Fatalf("transpose wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestTileMajorPermIsBPC(t *testing.T) {
	p, err := tileMajorPerm(6, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsBPC() {
		t.Fatal("tile-major conversion is not BPC")
	}
	// Element (i, j) at row-major i*2^5+j must land at the tile-major
	// address ((i_hi*(2^5/2^3) + j_hi)*2^3 + i_lo)*2^3 + j_lo.
	for trial := 0; trial < 200; trial++ {
		i := uint64(trial * 37 % 64)
		j := uint64(trial * 11 % 32)
		src := i<<5 | j
		il, ih := i&7, i>>3
		jl, jh := j&7, j>>3
		want := ((ih*(32/8)+jh)*8+il)*8 + jl
		if got := p.Apply(src); got != want {
			t.Fatalf("(%d,%d): tile-major %d, want %d", i, j, got, want)
		}
	}
}

// streamIOs is the blocked multiply's closed-form stream cost for A of
// r x s and B of s x tc with tile side t: each of the (r/t)(tc/t) output
// tiles reads s/t tiles of A and of B and writes one tile of C, and a
// tile is t^2/BD striped parallel I/Os.
func streamIOs(r, s, tc, t, bd int) int {
	return (r / t) * (tc / t) * (2*s/t + 1) * t * t / bd
}

func TestMultiplySquare(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(172))
	a, err := New(cfg, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(cfg, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	av := randomValues(rng, cfg.N)
	bv := randomValues(rng, cfg.N)
	if err := a.Load(av); err != nil {
		t.Fatal(err)
	}
	if err := b.Load(bv); err != nil {
		t.Fatal(err)
	}
	c, res, err := Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Dump()
	if err != nil {
		t.Fatal(err)
	}
	const S = 32
	for i := 0; i < S; i++ {
		for j := 0; j < S; j++ {
			var want float64
			for k := 0; k < S; k++ {
				want += av[i*S+k] * bv[k*S+j]
			}
			if math.Abs(got[i*S+j]-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("C(%d,%d) = %v, want %v", i, j, got[i*S+j], want)
			}
		}
	}
	if res.LayoutIOs <= 0 {
		t.Errorf("implausible I/O split %+v", res)
	}
	// Tile side t = 2^floor((lg M - 2)/2) = 8: 288 stream I/Os.
	if want := streamIOs(S, S, S, 8, cfg.B*cfg.D); res.StreamIOs != want {
		t.Errorf("StreamIOs = %d, want %d", res.StreamIOs, want)
	}
	// Operands restored to row-major.
	if _, err := a.Dump(); err != nil {
		t.Errorf("A not restored: %v", err)
	}
	back, _ := a.Dump()
	for i := range av {
		if back[i] != av[i] {
			t.Fatal("A contents changed by multiply")
		}
	}
}

func TestMultiplyRectangular(t *testing.T) {
	// A: 64x16, B: 16x32 -> C: 64x32.
	cfgA := pdm.Config{N: 1 << 10, D: 2, B: 8, M: 1 << 8}
	cfgB := pdm.Config{N: 1 << 9, D: 2, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(173))
	a, err := New(cfgA, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(cfgB, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	av := randomValues(rng, cfgA.N)
	bv := randomValues(rng, cfgB.N)
	_ = a.Load(av)
	_ = b.Load(bv)
	c, res, err := Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Rows() != 64 || c.Cols() != 32 {
		t.Fatalf("C shape %dx%d", c.Rows(), c.Cols())
	}
	// Tile side 8 on every operand, BD = 16: 640 stream I/Os.
	if want := streamIOs(64, 16, 32, 8, cfgA.B*cfgA.D); res.StreamIOs != want {
		t.Errorf("StreamIOs = %d, want %d", res.StreamIOs, want)
	}
	got, _ := c.Dump()
	for i := 0; i < 64; i += 7 {
		for j := 0; j < 32; j += 5 {
			var want float64
			for k := 0; k < 16; k++ {
				want += av[i*16+k] * bv[k*32+j]
			}
			if math.Abs(got[i*32+j]-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("C(%d,%d) = %v, want %v", i, j, got[i*32+j], want)
			}
		}
	}
}

func TestMultiplyIdentity(t *testing.T) {
	cfg := pdm.Config{N: 1 << 8, D: 2, B: 8, M: 1 << 6}
	rng := rand.New(rand.NewSource(174))
	a, _ := New(cfg, 4, 4)
	defer a.Close()
	id, _ := New(cfg, 4, 4)
	defer id.Close()
	av := randomValues(rng, cfg.N)
	_ = a.Load(av)
	iv := make([]float64, cfg.N)
	for i := 0; i < 16; i++ {
		iv[i*16+i] = 1
	}
	_ = id.Load(iv)
	c, _, err := Multiply(context.Background(), a, id)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _ := c.Dump()
	for i := range av {
		if math.Abs(got[i]-av[i]) > 1e-12 {
			t.Fatalf("A*I differs at %d", i)
		}
	}
}

// TestMultiplyTilesStopsOnCancel: the blocked multiply checks ctx before
// each output tile, so an already-canceled ctx streams nothing.
func TestMultiplyTilesStopsOnCancel(t *testing.T) {
	cfg := pdm.Config{N: 1 << 10, D: 4, B: 8, M: 1 << 8}
	var ms [3]*Matrix
	for i := range ms {
		m, err := New(cfg, 5, 5)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ms[i] = m
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := multiplyTiles(ctx, ms[0], ms[1], ms[2], 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("multiplyTiles on a canceled ctx: %v, want context.Canceled", err)
	}
	if got := ioTotal(ms[:]...); got != 0 {
		t.Errorf("canceled multiply streamed %d parallel I/Os, want 0", got)
	}
}

func TestMultiplyErrors(t *testing.T) {
	cfg := pdm.Config{N: 1 << 8, D: 2, B: 8, M: 1 << 6}
	a, _ := New(cfg, 4, 4)
	defer a.Close()
	b, _ := New(cfg, 3, 5)
	defer b.Close()
	if _, _, err := Multiply(context.Background(), a, b); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := New(cfg, 3, 3); err == nil {
		t.Error("wrong N accepted")
	}
}

func TestTransposeViaCatalogAgrees(t *testing.T) {
	// The matrix-level transpose and the raw catalog permutation agree.
	cfg := pdm.Config{N: 1 << 8, D: 2, B: 8, M: 1 << 6}
	p := perm.Transpose(3, 5)
	m, _ := New(cfg, 3, 5)
	defer m.Close()
	vals := make([]float64, cfg.N)
	for i := range vals {
		vals[i] = float64(i)
	}
	_ = m.Load(vals)
	if err := m.Transpose(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Dump()
	for src := range vals {
		if got[p.Apply(uint64(src))] != vals[src] {
			t.Fatalf("transpose disagrees with catalog at %d", src)
		}
	}
}

func BenchmarkOutOfCoreMultiply(b *testing.B) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	rng := rand.New(rand.NewSource(1))
	av := randomValues(rng, cfg.N)
	bv := randomValues(rng, cfg.N)
	var ios int
	for i := 0; i < b.N; i++ {
		a, err := New(cfg, 6, 6)
		if err != nil {
			b.Fatal(err)
		}
		bm, err := New(cfg, 6, 6)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Load(av); err != nil {
			b.Fatal(err)
		}
		if err := bm.Load(bv); err != nil {
			b.Fatal(err)
		}
		c, res, err := Multiply(context.Background(), a, bm)
		if err != nil {
			b.Fatal(err)
		}
		ios = res.ParallelIOs()
		c.Close()
		a.Close()
		bm.Close()
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

// TestLoadHoldsFewChunks: loading a 2^20-element matrix stored on files
// allocates a few 256 KiB chunks, not an N-record copy of the values.
func TestLoadHoldsFewChunks(t *testing.T) {
	cfg := pdm.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}
	sys, err := pdm.NewSystem(cfg, pdm.FileBackend(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	m := &Matrix{sys: sys, lgR: 10, lgS: 10}
	defer m.Close()
	vals := randomValues(rand.New(rand.NewSource(171)), cfg.N)
	const limit = 4 << 18 // four chunks of 2^14 16-byte records
	var err2 error
	if got := allocated(func() { err2 = m.Load(vals) }); err2 != nil {
		t.Fatal(err2)
	} else if got > limit {
		t.Errorf("Load of %d values allocated %d bytes, want at most four chunks (%d)", cfg.N, got, limit)
	}
	for _, ij := range [][2]int{{0, 0}, {3, 17}, {1023, 1023}} {
		v, err := m.At(ij[0], ij[1])
		if err != nil {
			t.Fatal(err)
		}
		if want := vals[ij[0]<<10|ij[1]]; v != want {
			t.Fatalf("At(%d,%d) = %v, want %v", ij[0], ij[1], v, want)
		}
	}
}

// TestDumpHoldsFewChunks: dumping a 2^20-element matrix stored on files
// allocates the output slice and a few 256 KiB chunks, not an N-record
// copy of the stored records.
func TestDumpHoldsFewChunks(t *testing.T) {
	cfg := pdm.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}
	sys, err := pdm.NewSystem(cfg, pdm.FileBackend(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	m := &Matrix{sys: sys, lgR: 10, lgS: 10}
	defer m.Close()
	vals := randomValues(rand.New(rand.NewSource(173)), cfg.N)
	if err := m.Load(vals); err != nil {
		t.Fatal(err)
	}
	limit := uint64(cfg.N)*8 + 4<<18 // the values plus four chunks of 2^14 16-byte records
	var got []float64
	var err2 error
	if n := allocated(func() { got, err2 = m.Dump() }); err2 != nil {
		t.Fatal(err2)
	} else if n > limit {
		t.Errorf("Dump of %d values allocated %d bytes, want at most the output plus four chunks (%d)", cfg.N, n, limit)
	}
	if !slices.Equal(got, vals) {
		t.Fatal("Dump did not return the loaded values")
	}
}

// TestChaosLoadWriteFault: a storage fault part way through a load fails
// it and leaves the previous values readable, whole.
func TestChaosLoadWriteFault(t *testing.T) {
	cfg := pdm.Config{N: 1 << 16, D: 4, B: 8, M: 1 << 8} // four chunks
	chunkXfers := (1 << 14) / cfg.B
	fb := pdm.NewFlakyBackend(pdm.MemBackend(), pdm.FlakyOptions{FailAfterN: 2*chunkXfers + chunkXfers/2, Mode: pdm.FaultWriteOnly})
	fb.Disarm()
	sys, err := pdm.NewSystem(cfg, fb)
	if err != nil {
		t.Fatal(err)
	}
	m := &Matrix{sys: sys, lgR: 8, lgS: 8}
	defer m.Close()
	rng := rand.New(rand.NewSource(172))
	if err := m.Load(randomValues(rng, cfg.N)); err != nil {
		t.Fatal(err)
	}
	before, err := sys.DumpRecords()
	if err != nil {
		t.Fatal(err)
	}

	fb.Arm()
	err = m.Load(randomValues(rng, cfg.N))
	fb.Disarm()
	if !errors.Is(err, pdm.ErrInjectedFault) {
		t.Fatalf("faulted load error = %v, want the injected fault", err)
	}
	after, err := sys.DumpRecords()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, before) {
		t.Fatal("a faulted Load changed the stored values")
	}
}
