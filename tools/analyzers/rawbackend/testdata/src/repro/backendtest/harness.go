// Package backendtest stands in for the conformance harness: its whole
// purpose is to exercise Backend implementations below the accounting
// layer, so it sits on the -allowpkgs list.
package backendtest

import "repro/internal/pdm"

func Exercise(be pdm.Backend) error {
	return be.ReadBlockRanges(nil) // ok: conformance harness is allowlisted
}
