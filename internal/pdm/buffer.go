package pdm

// Buffer is an independent memoryload-sized record buffer handed out by a
// System. Where the implicit System.Mem() models the single M-record memory
// of the Vitter-Shriver machine, buffers let an execution engine hold more
// than one memoryload in flight at once — e.g. prefetching memoryload k+1
// while memoryload k is being permuted — without perturbing the model's
// accounting: every transfer still goes through a counted parallel I/O, and
// the one-block-per-disk rule is enforced exactly as for the shared memory.
//
// A Buffer is M records organized as M/B frames, mirroring the layout of
// System.Mem(). Buffers are plain host memory: acquiring one is free and
// does not touch the simulated disks or the I/O counters.
//
// A Buffer also owns the scratch its I/O is planned in — the transfer
// batch, the block vectors pointing at its frames, and the grouped path's
// per-disk regrouping — reused from call to call, so both the
// per-operation and the grouped paths run allocation-free once warm. One
// set suffices because a Buffer never serves two parallel I/Os at once
// (its frames would race first).
type Buffer struct {
	b    int // records per frame (block size B)
	recs []Record

	xbuf      []RangeXfer  // transfer batch handed to the backend
	vecs      [][]Record   // backing of the batch's block vectors
	perDisk   [][]rangeRef // grouped path: each disk's blocks, by physical block
	frameSeen []bool       // grouped path: frames claimed by the group so far
}

// AcquireBuffer returns a memoryload-sized buffer (M records, M/B frames)
// compatible with the system's geometry. Its records come from the slab
// pool and their contents are unspecified: every caller fills a frame —
// by a parallel read, or by a scatter covering the whole load — before
// reading it. Release it with ReleaseBuffer.
func (s *System) AcquireBuffer() *Buffer {
	return &Buffer{b: s.cfg.B, recs: AcquireSlab(s.cfg.M)}
}

// ReleaseBuffer returns buf's records to the slab pool. Neither buf nor
// any slice obtained from it may be used afterwards.
func (s *System) ReleaseBuffer(buf *Buffer) {
	ReleaseSlab(buf.recs)
	buf.recs = nil
}

// Records returns the buffer's backing slice of M records; frame f occupies
// Records()[f*B : (f+1)*B].
func (b *Buffer) Records() []Record { return b.recs }

// Frames returns the number of B-record frames in the buffer (M/B).
func (b *Buffer) Frames() int { return len(b.recs) / b.b }

// Frame returns the B-record slice backing frame f.
func (b *Buffer) Frame(f int) []Record {
	return b.recs[f*b.b : (f+1)*b.b]
}

// ParallelReadInto performs one parallel read into a caller-supplied buffer:
// every listed block (at most one per disk) is copied from portion p into
// its frame of buf. Validation, counting, and trace semantics are identical
// to ParallelRead — one parallel I/O regardless of how many disks take part.
// A nil buf targets the system memory, making ParallelRead equivalent to
// ParallelReadInto(p, ios, nil).
//
// Distinct goroutines may issue buffer-targeted I/O concurrently (e.g. a
// prefetch read overlapping an in-flight write): per-disk transfers are
// serialized per disk, and the counters and trace observer are updated
// atomically per operation.
func (s *System) ParallelReadInto(p Portion, ios []BlockIO, buf *Buffer) error {
	if buf == nil {
		buf = s.memBuf
	}
	if err := s.validate(p, ios); err != nil {
		return err
	}
	if err := s.be.ReadBlockRanges(s.xfers(p, ios, buf)); err != nil {
		return err
	}
	s.mu.Lock()
	for _, io := range ios {
		s.stats.PerDiskReads[io.Disk]++
	}
	s.stats.ParallelReads++
	s.stats.BlocksRead += len(ios)
	s.notifyLocked(IORead, p, ios)
	s.mu.Unlock()
	return nil
}

// ParallelWriteFrom performs one parallel write from a caller-supplied
// buffer: every listed frame of buf is copied to its block (at most one per
// disk) in portion p. One parallel I/O; a nil buf targets the system memory.
// Safe for use concurrently with other buffer-targeted I/O (see
// ParallelReadInto).
func (s *System) ParallelWriteFrom(p Portion, ios []BlockIO, buf *Buffer) error {
	if buf == nil {
		buf = s.memBuf
	}
	if err := s.validate(p, ios); err != nil {
		return err
	}
	if err := s.be.WriteBlockRanges(s.xfers(p, ios, buf)); err != nil {
		return err
	}
	s.mu.Lock()
	for _, io := range ios {
		s.stats.PerDiskWrites[io.Disk]++
	}
	s.stats.ParallelWrites++
	s.stats.BlocksWritten += len(ios)
	s.notifyLocked(IOWrite, p, ios)
	s.mu.Unlock()
	return nil
}

// xfers resolves one validated parallel I/O into the one-block runs handed
// to the storage backend: portion-relative positions become physical block
// numbers, frame indices become one-element vectors over the frames. The
// batch lives in the buffer's scratch.
func (s *System) xfers(p Portion, ios []BlockIO, buf *Buffer) []RangeXfer {
	xs, vecs := buf.scratch(s.cfg)
	xs, vecs = xs[:len(ios)], vecs[:len(ios)]
	for i, io := range ios {
		vecs[i] = buf.Frame(io.Frame)
		xs[i] = RangeXfer{Disk: io.Disk, Block: s.physBlock(p, io.Block), Blocks: vecs[i : i+1 : i+1]}
	}
	return xs
}

// scratch returns the buffer's transfer batch and vector backing, sized
// on first use for the largest batch a group can issue: one run, and one
// vector element, per frame.
func (buf *Buffer) scratch(cfg Config) ([]RangeXfer, [][]Record) {
	if buf.xbuf == nil {
		buf.xbuf = make([]RangeXfer, cfg.Frames())
		buf.vecs = make([][]Record, cfg.Frames())
	}
	return buf.xbuf, buf.vecs
}

// ReadStripeInto reads stripe `stripe` of portion p — one block from every
// disk — into D consecutive frames of buf starting at frame0. One parallel
// I/O.
func (s *System) ReadStripeInto(p Portion, stripe, frame0 int, buf *Buffer) error {
	ios := make([]BlockIO, s.cfg.D)
	for disk := range ios {
		ios[disk] = BlockIO{Disk: disk, Block: stripe, Frame: frame0 + disk}
	}
	return s.ParallelReadInto(p, ios, buf)
}

// WriteStripeFrom writes D consecutive frames of buf starting at frame0 to
// stripe `stripe` of portion p. One parallel I/O.
func (s *System) WriteStripeFrom(p Portion, stripe, frame0 int, buf *Buffer) error {
	ios := make([]BlockIO, s.cfg.D)
	for disk := range ios {
		ios[disk] = BlockIO{Disk: disk, Block: stripe, Frame: frame0 + disk}
	}
	return s.ParallelWriteFrom(p, ios, buf)
}
