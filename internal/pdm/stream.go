package pdm

import (
	"context"
	"fmt"
	"io"
)

// streamChunkRecords bounds how many records the streaming data plane
// moves between context checks: large enough that the I/O dominates, small
// enough that cancellation is prompt and the per-chunk Write to a socket
// amortizes its syscall.
const streamChunkRecords = 1 << 14

// chunkStripes returns the whole-stripe chunking of the streaming data
// plane: at least one stripe, at most streamChunkRecords records.
func (s *System) chunkStripes() int {
	cs := streamChunkRecords / (s.cfg.B * s.cfg.D)
	if cs < 1 {
		cs = 1
	}
	return cs
}

// LoadFrom replaces portion p's records with exactly N records read from r
// in the wire format, returning the bytes consumed. Like LoadRecords it is
// not counted as parallel I/O — it models the data already residing on the
// disks — and it is the bulk path under Dataset.Load and every bmmcd
// upload: the stream is read chunk-wise into a pooled record arena (on
// little-endian hosts the bytes land in the records with no per-record
// decode) and committed to the backend a whole stripe — one single-block
// run per disk — per WriteBlockRanges call, with the transfer slices
// aliasing the arena.
//
// The reader is consumed exactly N*RecordBytes bytes; fewer is an error
// (io.ErrUnexpectedEOF). ctx cancellation and short reads abort before
// anything is committed, leaving the stored records unchanged.
func (s *System) LoadFrom(ctx context.Context, p Portion, r io.Reader) (int64, error) {
	cfg := s.cfg
	slab := AcquireSlab(cfg.N)
	defer ReleaseSlab(slab)
	var read int64
	for off := 0; off < cfg.N; off += streamChunkRecords {
		if err := ctx.Err(); err != nil {
			return read, fmt.Errorf("pdm: LoadFrom canceled at record %d/%d: %w", off, cfg.N, err)
		}
		nrec := min(streamChunkRecords, cfg.N-off)
		n, err := ReadRecords(r, slab[off:off+nrec])
		read += int64(n)
		if err != nil {
			return read, fmt.Errorf("pdm: LoadFrom: reading records %d..%d of %d: %w", off, off+nrec-1, cfg.N, err)
		}
	}
	// The full stream arrived; commit it stripe-wise. Transfer slices
	// alias the arena, so the backend copies each block exactly once (and
	// file backends write the slab bytes as-is).
	stripeRecs := cfg.B * cfg.D
	xs, vecs := make([]RangeXfer, cfg.D), make([][]Record, cfg.D)
	for stripe := 0; stripe < cfg.Stripes(); stripe++ {
		s.stripeXfers(xs, vecs, p, stripe, slab[stripe*stripeRecs:(stripe+1)*stripeRecs])
		if err := s.be.WriteBlockRanges(xs); err != nil {
			return read, err
		}
	}
	return read, nil
}

// DumpTo writes portion p's N records to w in address order in the wire
// format, returning the bytes written. Not counted as parallel I/O. It is
// the bulk path under Dataset.Dump and every bmmcd download: blocks are
// gathered a chunk of stripes at a time into a pooled arena (through the
// backend's copy-free block views when it offers them) and each chunk goes
// out in one Write, so no per-record encode runs anywhere on the path.
// ctx cancellation aborts between chunks (w may have received a prefix).
func (s *System) DumpTo(ctx context.Context, p Portion, w io.Writer) (int64, error) {
	cfg := s.cfg
	stripeRecs := cfg.B * cfg.D
	cs := s.chunkStripes()
	slab := AcquireSlab(cs * stripeRecs)
	defer ReleaseSlab(slab)
	viewer, _ := s.be.(BlockViewer)
	xs, vecs := make([]RangeXfer, 0, cfg.D), make([][]Record, cfg.D)
	var written int64
	for stripe0 := 0; stripe0 < cfg.Stripes(); stripe0 += cs {
		if err := ctx.Err(); err != nil {
			return written, fmt.Errorf("pdm: DumpTo canceled at stripe %d/%d: %w", stripe0, cfg.Stripes(), err)
		}
		ns := min(cs, cfg.Stripes()-stripe0)
		for sw := 0; sw < ns; sw++ {
			base := sw * stripeRecs
			xs = xs[:0]
			for disk := 0; disk < cfg.D; disk++ {
				dst := slab[base+disk*cfg.B : base+(disk+1)*cfg.B]
				if viewer != nil {
					if v, ok := viewer.BlockView(disk, s.physBlock(p, stripe0+sw)); ok {
						copy(dst, v)
						continue
					}
				}
				vecs[disk] = dst
				xs = append(xs, RangeXfer{Disk: disk, Block: s.physBlock(p, stripe0+sw), Blocks: vecs[disk : disk+1 : disk+1]})
			}
			if len(xs) > 0 {
				if err := s.be.ReadBlockRanges(xs); err != nil {
					return written, err
				}
			}
		}
		n, err := WriteRecords(w, slab[:ns*stripeRecs])
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("pdm: DumpTo: writing stripes %d..%d of %d: %w", stripe0, stripe0+ns-1, cfg.Stripes(), err)
		}
	}
	return written, nil
}
