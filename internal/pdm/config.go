// Package pdm simulates the Vitter-Shriver parallel disk model: N records on
// D independent disks, B records per block, and a random-access memory of M
// records. Every parallel I/O operation transfers at most one block per disk
// and is counted exactly once, so the parallel-I/O totals reported by a
// System are the quantity bounded by the paper's theorems.
//
// Data layout follows Figure 1 of the paper: record indices vary most
// rapidly within a block, then across disks, then across stripes. An n-bit
// record address x = (x_0, ..., x_{n-1}) parses per Figure 2: the low
// b = lg B bits are the offset within the block, the next d = lg D bits the
// disk number, and the top s = n-(b+d) bits the stripe number. Bits b..m-1
// form the relative block number and bits m..n-1 the memoryload number.
//
// Each disk holds two portions of N/BD blocks, and only a System knows
// which one is the source, holding the stored records. Counted reads and
// every bulk read see the source; counted writes land in the other, the
// target, and stay invisible to reads until System.Commit makes them the
// stored records, as the paper chains one-pass permutations.
package pdm

import (
	"fmt"
	"math/bits"
)

// Config fixes the four parameters of the parallel disk model. All must be
// powers of two, with BD <= M < N (the paper's standing assumptions, which
// make b+d <= m < n).
type Config struct {
	N int // total records
	D int // disks
	B int // records per block
	M int // records of memory
}

// Validate reports whether the configuration satisfies the model's
// requirements: positive powers of two, BD <= M, and M < N.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"N", c.N}, {"D", c.D}, {"B", c.B}, {"M", c.M}} {
		if f.v <= 0 || f.v&(f.v-1) != 0 {
			return fmt.Errorf("pdm: %s = %d must be a positive power of 2", f.name, f.v)
		}
	}
	if c.B*c.D > c.M {
		return fmt.Errorf("pdm: BD = %d exceeds memory M = %d", c.B*c.D, c.M)
	}
	if c.M >= c.N {
		return fmt.Errorf("pdm: M = %d must be smaller than N = %d", c.M, c.N)
	}
	return nil
}

// LgN returns n = lg N, the address width in bits.
func (c Config) LgN() int { return bits.TrailingZeros64(uint64(c.N)) }

// LgB returns b = lg B.
func (c Config) LgB() int { return bits.TrailingZeros64(uint64(c.B)) }

// LgD returns d = lg D.
func (c Config) LgD() int { return bits.TrailingZeros64(uint64(c.D)) }

// LgM returns m = lg M.
func (c Config) LgM() int { return bits.TrailingZeros64(uint64(c.M)) }

// Stripes returns N/BD, the number of stripes holding all N records.
func (c Config) Stripes() int { return c.N / (c.B * c.D) }

// BlocksPerDisk returns N/BD, the blocks each disk devotes to one portion.
func (c Config) BlocksPerDisk() int { return c.Stripes() }

// Blocks returns N/B, the total number of blocks in one portion.
func (c Config) Blocks() int { return c.N / c.B }

// Memoryloads returns N/M, the number of memoryloads.
func (c Config) Memoryloads() int { return c.N / c.M }

// StripesPerMemoryload returns M/BD, the consecutive stripes that make up
// one memoryload.
func (c Config) StripesPerMemoryload() int { return c.M / (c.B * c.D) }

// Frames returns M/B, the number of block frames that fit in memory; it is
// also the count of relative block numbers.
func (c Config) Frames() int { return c.M / c.B }

// FramesPerDisk returns M/BD, the frames per disk within one memoryload.
func (c Config) FramesPerDisk() int { return c.M / (c.B * c.D) }

// PassIOs returns 2N/BD, the number of parallel I/Os in one full pass
// (reading and writing every record exactly once).
func (c Config) PassIOs() int { return 2 * c.Stripes() }

// Offset returns the record's offset within its block: bits 0..b-1 of x.
func (c Config) Offset(x uint64) int { return int(x & uint64(c.B-1)) }

// DiskOf returns the disk number holding address x: bits b..b+d-1.
func (c Config) DiskOf(x uint64) int {
	return int((x >> uint(c.LgB())) & uint64(c.D-1))
}

// StripeOf returns the stripe number of address x: bits b+d..n-1.
func (c Config) StripeOf(x uint64) int {
	return int(x >> uint(c.LgB()+c.LgD()))
}

// BlockIndex returns x's global block number x_{b..n-1} = x >> b; the paper
// indexes target groups by this value.
func (c Config) BlockIndex(x uint64) int { return int(x >> uint(c.LgB())) }

// RelBlock returns the relative block number, bits b..m-1 of x: the block's
// index within its memoryload, in 0..M/B-1 (Section 3).
func (c Config) RelBlock(x uint64) int {
	return int((x >> uint(c.LgB())) & uint64(c.Frames()-1))
}

// MemoryloadOf returns the memoryload number, bits m..n-1 of x.
func (c Config) MemoryloadOf(x uint64) int {
	return int(x >> uint(c.LgM()))
}

// Addr reassembles a record address from its parsed fields.
func (c Config) Addr(stripe, disk, offset int) uint64 {
	return uint64(stripe)<<uint(c.LgB()+c.LgD()) | uint64(disk)<<uint(c.LgB()) | uint64(offset)
}

// BlockAddr returns the address of record `offset` within the block at
// (disk, blockOnDisk), where blockOnDisk is the stripe number.
func (c Config) BlockAddr(disk, blockOnDisk, offset int) uint64 {
	return c.Addr(blockOnDisk, disk, offset)
}

func (c Config) String() string {
	return fmt.Sprintf("N=%d D=%d B=%d M=%d (n=%d d=%d b=%d m=%d)",
		c.N, c.D, c.B, c.M, c.LgN(), c.LgD(), c.LgB(), c.LgM())
}
