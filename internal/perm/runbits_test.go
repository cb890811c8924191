package perm

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/gf2"
)

// TestContiguousRunBits pins the run-detection rule on constructed cases:
// the run width is the number of low address bits the permutation fixes,
// and any disturbance — a swapped row, an off-diagonal entry, or a low
// complement bit — caps it exactly there.
func TestContiguousRunBits(t *testing.T) {
	const n = 10
	if got := Identity(n).ContiguousRunBits(); got != n {
		t.Fatalf("identity: run bits %d, want %d", got, n)
	}
	for k := 0; k < n-1; k++ {
		// Swap address bits k and k+1: the low k bits stay fixed, bit k
		// does not.
		a := gf2.Identity(n)
		a.SwapRows(k, k+1)
		if got := MustNew(a, 0).ContiguousRunBits(); got != k {
			t.Fatalf("swap(%d,%d): run bits %d, want %d", k, k+1, got, k)
		}
		// Complement bit k: same cap, via c instead of A.
		if got := MustNew(gf2.Identity(n), gf2.Vec(1)<<uint(k)).ContiguousRunBits(); got != k {
			t.Fatalf("complement bit %d: run bits %d, want %d", k, got, k)
		}
		// An off-diagonal entry feeding bit k+1 from bit k breaks the
		// column condition at k even though row k is untouched.
		a = gf2.Identity(n)
		a.Set(k+1, k, 1)
		if got := MustNew(a, 0).ContiguousRunBits(); got != k {
			t.Fatalf("column tap at %d: run bits %d, want %d", k, got, k)
		}
	}
}

// TestContiguousRunBitsSemantics verifies the definition against the Apply
// oracle exhaustively on small sizes: within every aligned run the map is
// an offset-preserving shift, and the width is maximal.
func TestContiguousRunBitsSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(530))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		p := MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
		k := p.ContiguousRunBits()
		run := uint64(1) << uint(k)
		for base := uint64(0); base < p.Size(); base += run {
			y0 := p.Apply(base)
			for i := uint64(1); i < run; i++ {
				if p.Apply(base+i) != y0+i {
					t.Fatalf("n=%d k=%d: run broken at base %d offset %d", n, k, base, i)
				}
			}
		}
		if k < n {
			// Maximality: some aligned 2^(k+1) run is not contiguous.
			wide := run * 2
			broken := false
			for base := uint64(0); base < p.Size() && !broken; base += wide {
				y0 := p.Apply(base)
				for i := uint64(1); i < wide; i++ {
					if p.Apply(base+i) != y0+i {
						broken = true
						break
					}
				}
			}
			if !broken {
				t.Fatalf("n=%d: run bits %d not maximal", n, k)
			}
		}
	}
}

// FuzzCompiledApply cross-checks the compiled byte-table applier, its
// step table and its run detection against the naive matrix-vector
// BMMC.Apply oracle on fuzzer-chosen permutations, addresses and walk
// widths.
func FuzzCompiledApply(f *testing.F) {
	f.Add(int64(1), uint64(0), uint8(0))
	f.Add(int64(7), uint64(42), uint8(5))
	f.Add(int64(-3), uint64(1<<63), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, xRaw uint64, wRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		p := MustNew(gf2.RandomNonsingular(rng, n), gf2.RandomVec(rng, n))
		ca := p.Compile()
		x := xRaw & uint64(gf2.Mask(n))
		if got, want := ca.Apply(x), p.Apply(x); got != want {
			t.Fatalf("n=%d x=%d: compiled %d, oracle %d", n, x, got, want)
		}
		k := p.ContiguousRunBits()
		if ca.RunBits() != k {
			t.Fatalf("n=%d: compiled run bits %d, oracle %d", n, ca.RunBits(), k)
		}
		// The coalescing contract at x's aligned run, as the scatter
		// kernels use it: one Apply at the run base extends by addition.
		run := uint64(1) << uint(k)
		base := x &^ (run - 1)
		y0 := p.Apply(base)
		step := uint64(1)
		if run > 1<<10 {
			step = run >> 10 // sample long runs instead of walking 2^k records
		}
		for i := uint64(0); i < run; i += step {
			if p.Apply(base+i) != y0+i {
				t.Fatalf("n=%d k=%d: Apply(%d+%d) != Apply(%d)+%d", n, k, base, i, base, i)
			}
		}
		// The step-table contract, as the scatter kernels use it: each
		// Delta word is the image of a low-bit mask, and one Apply at an
		// aligned base followed by one XOR per address walks 2^w
		// addresses.
		for k := 0; k < n; k++ {
			if got, want := ca.Delta(k), p.Apply(uint64(1)<<uint(k+1)-1)^p.Apply(0); got != want {
				t.Fatalf("n=%d: Delta(%d) = %d, want %d", n, k, got, want)
			}
		}
		w := int(wRaw) % (min(n, 12) + 1)
		from := x &^ (uint64(1)<<uint(w) - 1)
		y := ca.Apply(from)
		for i := uint64(0); i < uint64(1)<<uint(w); i++ {
			if i > 0 {
				y ^= ca.Delta(bits.TrailingZeros64(from + i))
			}
			if want := p.Apply(from + i); y != want {
				t.Fatalf("n=%d w=%d: walk from %d reached %d at step %d, oracle %d", n, w, from, y, i, want)
			}
		}
	})
}
