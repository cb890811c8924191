// Package b is ordinary library code: every block transfer must route
// through the System so the I/O accounting stays honest.
package b

import "repro/internal/pdm"

func Leak(be pdm.Backend) error {
	return be.ReadBlocks(0, nil) // want "raw backend transfer ReadBlocks bypasses"
}

func LeakWrite(s *pdm.System) error {
	return s.B.WriteBlocks(0, nil) // want "raw backend transfer WriteBlocks bypasses"
}

// MethodValue takes the transfer as a value and calls it later: the
// records move all the same.
func MethodValue(be pdm.Backend) error {
	f := be.ReadBlocks // want "raw backend transfer ReadBlocks bypasses"
	return f(0, nil)
}

func MethodExpr(be pdm.Backend) error {
	return pdm.Backend.WriteBlocks(be, 0, nil) // want "raw backend transfer WriteBlocks bypasses"
}

func Routed(s *pdm.System, disk int, blocks []int) error {
	return s.Load(disk, blocks) // ok: routed through the accounting layer
}

type local struct{}

func (local) ReadBlocks(int, []int) error { return nil }

func Unrelated(l local) error {
	return l.ReadBlocks(0, nil) // ok: same method name on a non-backend type
}

func Suppressed(be pdm.Backend) error {
	//lint:allow rawbackend -- golden test for the suppression mechanism
	return be.ReadBlocks(0, nil)
}
