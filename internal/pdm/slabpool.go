package pdm

import "sync"

// slabPools hands out reusable record arenas keyed by record count. Every
// bulk path (System.LoadFrom, DumpTo, FillRecords and ScanRecords, and
// through them every bmmcd upload and download, the canonical fill and a
// verify) walks the stored records through one arena of at most one
// chunk, 2^14 records, and the grouped parallel I/O stages its coalesced
// runs in one; acquiring from the pool spares each call its own arena. A
// daemon serving datasets of differing geometries keeps one pool per
// distinct slab size. The map holds *sync.Pool values and only grows — the
// set of sizes a process touches is small and stable.
var slabPools sync.Map // map[int]*sync.Pool

// AcquireSlab returns a record arena of exactly n records from the pool,
// allocating only when the pool is empty. Contents are unspecified —
// callers overwrite before reading. Release with ReleaseSlab.
func AcquireSlab(n int) []Record {
	p, ok := slabPools.Load(n)
	if !ok {
		p, _ = slabPools.LoadOrStore(n, &sync.Pool{
			New: func() any { s := make([]Record, n); return &s },
		})
	}
	return *p.(*sync.Pool).Get().(*[]Record)
}

// ReleaseSlab returns a slab obtained from AcquireSlab to its pool. The
// caller must not touch the slab afterwards.
func ReleaseSlab(s []Record) {
	if len(s) == 0 {
		return
	}
	if p, ok := slabPools.Load(len(s)); ok {
		p.(*sync.Pool).Put(&s)
	}
}
