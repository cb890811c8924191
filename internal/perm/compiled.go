package perm

import (
	"math/bits"

	"repro/internal/gf2"
)

// Compiled is a table-driven form of a BMMC permutation. Apply on the
// Matrix form costs one AND+popcount per matrix row; the compiled form
// splits the source address into bytes and XORs eight precomputed partial
// products, independent of n. Engines compile once per pass.
//
// The map is affine, y = Ax ⊕ c, so consecutive addresses need no Apply at
// all: x−1 and x differ exactly in bits 0..k, k = TrailingZeros(x), hence
// Apply(x) = Apply(x−1) ⊕ Delta(k). The scatter kernels Apply once per
// load, frame or chunk and then walk every record by one XOR with a
// step-table word; the class properties the scatters rely on are
// properties of A, checked once per pass on the same words. When the
// permutation fixes its low address bits (RunBits > 0), a kernel walks one
// run of addresses per step and moves it with one block copy.
type Compiled struct {
	tab     [8][256]uint64 // tab[k][v] = A * (v << 8k) over GF(2)
	delta   [64]uint64     // delta[k] = A * (2^(k+1) - 1) over GF(2)
	c       uint64
	runBits int // lg of the largest aligned source run moved contiguously
}

// Compile precomputes the byte-lookup tables, the step table and the run
// width for p.
func (p BMMC) Compile() *Compiled {
	ca := &Compiled{c: uint64(p.C), runBits: p.ContiguousRunBits()}
	n := p.Bits()
	// Column images: colImage[j] = A * e_j.
	var colImage [gf2.MaxDim]uint64
	for j := 0; j < n; j++ {
		colImage[j] = uint64(p.A.MulVec(gf2.Vec(1) << uint(j)))
	}
	acc := uint64(0)
	for k := range ca.delta {
		acc ^= colImage[k] // zero for k >= n
		ca.delta[k] = acc
	}
	for k := 0; k < 8; k++ {
		base := 8 * k
		if base >= n {
			break // higher bytes are always zero for n-bit addresses
		}
		for v := 1; v < 256; v++ {
			// One new bit relative to v with that bit cleared.
			low := v & (v - 1)
			bit := base + bits.TrailingZeros8(uint8(v^low))
			img := uint64(0)
			if bit < n {
				img = colImage[bit]
			}
			ca.tab[k][v] = ca.tab[k][low] ^ img
		}
	}
	return ca
}

// RunBits returns the largest k such that the permutation moves aligned
// runs of 2^k consecutive source addresses to 2^k consecutive target
// addresses (see BMMC.ContiguousRunBits). The run-coalescing scatter
// kernels replace 2^k record moves with one copy per run.
func (ca *Compiled) RunBits() int { return ca.runBits }

// Delta returns the step-table word A·(2^(k+1)−1), for 0 <= k < 64:
// Apply(x) = Apply(x−1) ⊕ Delta(bits.TrailingZeros64(x)) for every x >= 1.
// Delta(k) for k >= n equals Delta(n−1).
func (ca *Compiled) Delta(k int) uint64 { return ca.delta[k] }

// Apply maps a source address to its target address, equal to
// BMMC.Apply for addresses below 2^n.
func (ca *Compiled) Apply(x uint64) uint64 {
	return ca.tab[0][x&0xff] ^
		ca.tab[1][x>>8&0xff] ^
		ca.tab[2][x>>16&0xff] ^
		ca.tab[3][x>>24&0xff] ^
		ca.tab[4][x>>32&0xff] ^
		ca.tab[5][x>>40&0xff] ^
		ca.tab[6][x>>48&0xff] ^
		ca.tab[7][x>>56&0xff] ^
		ca.c
}
