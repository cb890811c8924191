package b

// An aliased import of the accounting layer hides nothing: the analyzer
// resolves types, not import names.

import accounting "repro/internal/pdm"

func AliasedLeak(be accounting.Backend) error {
	return be.WriteBlocks(0, nil) // want "raw backend transfer WriteBlocks bypasses"
}

func AliasedMethodValue(s *accounting.System) func(int, []int) error {
	return s.B.ReadBlocks // want "raw backend transfer ReadBlocks bypasses"
}

func AliasedRouted(s *accounting.System) error {
	return s.Store(0, nil) // ok: routed through the accounting layer
}
