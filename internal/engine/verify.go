package engine

import (
	"fmt"

	"repro/internal/pdm"
	"repro/internal/perm"
)

// LoadSequential fills the system's source portion with the canonical
// records MakeRecord(0..N-1), the starting state of every experiment, one
// chunk at a time. Not counted as I/O, and no commit: it initializes
// storage that holds no committed records yet, or none that its new owner
// may read, like a released job's storage that bmmcd hands to the next.
func LoadSequential(sys *pdm.System) error {
	return sys.FillRecords(sys.Source(), func(off int, chunk []pdm.Record) error {
		for i := range chunk {
			chunk[i] = pdm.MakeRecord(uint64(off + i))
		}
		return nil
	})
}

// VerifyMapping checks that portion p holds exactly the permutation given
// by targetOf applied to canonical records: the record stored at address y
// must carry key x with targetOf(x) = y and an intact integrity tag. It
// scans one chunk at a time and reports the first violation.
func VerifyMapping(sys *pdm.System, p pdm.Portion, targetOf func(uint64) uint64) error {
	return sys.ScanRecords(p, func(off int, chunk []pdm.Record) error {
		for i, r := range chunk {
			y := uint64(off + i)
			if !r.CheckIntegrity() {
				return fmt.Errorf("engine: record at address %d corrupted (key %d)", y, r.Key)
			}
			if got := targetOf(r.Key); got != y {
				return fmt.Errorf("engine: address %d holds record %d, which belongs at %d", y, r.Key, got)
			}
		}
		return nil
	})
}

// VerifyBMMC checks that portion p holds the result of applying the BMMC
// permutation to canonical records.
func VerifyBMMC(sys *pdm.System, p pdm.Portion, b perm.BMMC) error {
	return VerifyMapping(sys, p, b.Apply)
}
