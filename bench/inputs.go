package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	bmmc "repro"
)

// Every input a workload feeds the system is generated from the run's seed:
// the permutations (drawn from a seeded *rand.Rand) and the records, where
// the record at source address x is inputRecord(seed, x). Keys are a seeded
// bijection of the address, so a record found at the wrong address or with
// a damaged payload is detected without storing a copy of the input.

// inputRecord returns the record a run seeded with seed stores at address x.
func inputRecord(seed int64, x uint64) bmmc.Record {
	z := x + uint64(seed)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return bmmc.MakeRecord(z ^ (z >> 31))
}

// inputReader streams the n seeded input records in the wire format,
// without materializing them.
type inputReader struct {
	seed int64
	n, x uint64
	buf  [bmmc.RecordBytes]byte
	off  int
}

func newInputReader(seed int64, n int) *inputReader {
	return &inputReader{seed: seed, n: uint64(n), off: bmmc.RecordBytes}
}

func (r *inputReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if r.off == bmmc.RecordBytes {
			if r.x == r.n {
				if n == 0 {
					return 0, io.EOF
				}
				return n, nil
			}
			inputRecord(r.seed, r.x).Encode(r.buf[:])
			r.x++
			r.off = 0
		}
		c := copy(p[n:], r.buf[r.off:])
		r.off += c
		n += c
	}
	return n, nil
}

// inputBytes materializes the n seeded input records, for workloads that
// upload the same input over HTTP on every job.
func inputBytes(seed int64, n int) []byte {
	buf := make([]byte, n*bmmc.RecordBytes)
	if _, err := io.ReadFull(newInputReader(seed, n), buf); err != nil {
		panic(err) // the generator always yields exactly n records
	}
	return buf
}

// randomRank6 draws a random BMMC permutation on cfg's addresses whose
// gamma submatrix has rank 6, the knob that sets the paper's I/O cost.
func randomRank6(rng *rand.Rand, cfg bmmc.Config) bmmc.Permutation {
	return bmmc.RandomWithRankGamma(rng, cfg.LgN(), cfg.LgB(), 6)
}

// affine evaluates a BMMC address map y = Ax ⊕ c with one table per
// address byte: y = c ⊕ T0[x_0..7] ⊕ T1[x_8..15] ⊕ ..., a few loads per
// record instead of an n-bit matrix-vector product.
type affine struct {
	c uint64
	t [][256]uint64
}

func newAffine(p bmmc.Permutation) affine {
	n := p.Bits()
	a := affine{c: p.Apply(0), t: make([][256]uint64, (n+7)/8)}
	for j := range a.t {
		for v := uint64(0); v < 256; v++ {
			if x := v << (8 * j); x>>n == 0 {
				a.t[j][v] = p.Apply(x) ^ a.c
			}
		}
	}
	return a
}

func (a *affine) apply(x uint64) uint64 {
	y := a.c
	for j := range a.t {
		y ^= a.t[j][byte(x>>(8*j))]
	}
	return y
}

// checker is an io.Writer that verifies a record stream in address order:
// the record at address y must be input record src(y), where src maps an
// output address back to the input address it came from.
type checker struct {
	seed int64
	src  affine
	y    uint64
	part [bmmc.RecordBytes]byte
	np   int
	bad  uint64
	miss error // first mismatch
}

func newChecker(seed int64, src affine) *checker {
	return &checker{seed: seed, src: src}
}

func (c *checker) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if c.np > 0 || len(p) < bmmc.RecordBytes {
			k := copy(c.part[c.np:], p)
			c.np += k
			p = p[k:]
			if c.np == bmmc.RecordBytes {
				c.check(c.part[:])
				c.np = 0
			}
			continue
		}
		c.check(p[:bmmc.RecordBytes])
		p = p[bmmc.RecordBytes:]
	}
	return total, nil
}

func (c *checker) check(rec []byte) {
	want := inputRecord(c.seed, c.src.apply(c.y))
	if binary.LittleEndian.Uint64(rec[0:8]) != want.Key || binary.LittleEndian.Uint64(rec[8:16]) != want.Tag {
		if c.bad == 0 {
			c.miss = fmt.Errorf("address %d holds key %#x, want %#x", c.y, binary.LittleEndian.Uint64(rec[0:8]), want.Key)
		}
		c.bad++
	}
	c.y++
}

// result reports whether exactly n records arrived and all were in place.
func (c *checker) result(n int) error {
	switch {
	case c.bad > 0:
		return fmt.Errorf("output mismatch: %d of %d records misplaced or damaged; first: %w", c.bad, n, c.miss)
	case c.y != uint64(n) || c.np != 0:
		return fmt.Errorf("output has %d records and %d stray bytes, want %d records", c.y, c.np, n)
	}
	return nil
}
