// Package pdm mirrors the real accounting layer's transfer surface: the
// Backend interface whose raw range methods move records, and the System
// that is allowed to call them because it counts the parallel I/Os.
package pdm

type Record struct {
	Key, Tag uint64
}

// RangeXfer is one block run: a vector of one record slice per block.
type RangeXfer struct {
	Disk, Block int
	Blocks      [][]Record
}

type Backend interface {
	ReadBlockRanges(xfers []RangeXfer) error
	WriteBlockRanges(xfers []RangeXfer) error
}

type System struct {
	B Backend
}

func (s *System) Load(xfers []RangeXfer) error {
	return s.B.ReadBlockRanges(xfers) // ok: pdm is the accounting layer
}

func (s *System) Store(xfers []RangeXfer) error {
	return s.B.WriteBlockRanges(xfers) // ok: pdm is the accounting layer
}
