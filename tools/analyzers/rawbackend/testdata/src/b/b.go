// Package b is ordinary library code: every block transfer must route
// through the System so the I/O accounting stays honest.
package b

import "repro/internal/pdm"

func Leak(be pdm.Backend) error {
	return be.ReadBlockRanges(nil) // want "raw backend transfer ReadBlockRanges bypasses"
}

func LeakWrite(s *pdm.System) error {
	return s.B.WriteBlockRanges(nil) // want "raw backend transfer WriteBlockRanges bypasses"
}

func Routed(s *pdm.System, xfers []pdm.RangeXfer) error {
	return s.Load(xfers) // ok: routed through the accounting layer
}

type local struct{}

func (local) ReadBlockRanges([]int) error { return nil }

func Unrelated(l local) error {
	return l.ReadBlockRanges(nil) // ok: same method name on a non-backend type
}

func Suppressed(be pdm.Backend) error {
	//lint:allow rawbackend -- golden test for the suppression mechanism
	return be.ReadBlockRanges(nil)
}
