package pdm

import "sort"

// Grouped parallel I/O: the engine's pass runner knows a whole memoryload's
// operations at once (the M/BD striped reads of a load, or an MLD pass's
// M/BD independent write waves), so instead of issuing them one at a time it
// hands the group to the System, which regroups the blocks per disk,
// coalesces runs of consecutive physical blocks, and moves each run through
// one backend range transfer — a single pread/pwrite on file-backed disks
// instead of one syscall per block.
//
// Grouping is strictly a wall-clock optimization, like pipelining and
// worker sharding: the model's accounting is byte-identical to issuing the
// operations individually. Every operation is validated up front, counted
// as its own parallel I/O, and traced in group order. Any shape the
// regrouping cannot reproduce faithfully — a frame reused across the
// group's operations, or a write landing twice on one block, both
// order-dependent — falls back to the one-at-a-time path.
//
// Error paths match the loop too: when a coalesced range transfer fails —
// a flaky disk, a torn range that moved only a prefix — the group degrades
// to the one-at-a-time reference path and replays the whole group from
// scratch. Reads are idempotent and writes re-send the same bytes from the
// unchanged buffer frames, so the replay is safe; it counts exactly the
// waves that complete before its own failure (no double-count — the failed
// batched attempt counted nothing) and lets transient faults that spare
// the per-block path recover entirely. Validation errors surface before
// any transfer and count nothing, same as the loop's up-front validation
// of its first wave would abort it.

// rangeRef locates one block of a grouped parallel I/O: its physical block
// number on its disk, and the buffer frame it moves to or from.
type rangeRef struct {
	phys, frame int
}

// ParallelReadGroup performs the given sequence of parallel reads into buf,
// equivalent in records, counts, and trace to calling ParallelReadInto on
// each element of group in order. A nil buf targets the system memory.
func (s *System) ParallelReadGroup(p Portion, group [][]BlockIO, buf *Buffer) error {
	if buf == nil {
		buf = s.memBuf
	}
	if len(group) <= 1 {
		return s.readGroupLoop(p, group, buf)
	}
	perDisk, total, err := s.groupRuns(p, group, false)
	if err != nil {
		return err
	}
	if perDisk == nil {
		return s.readGroupLoop(p, group, buf)
	}
	bs := s.cfg.B
	slab := AcquireSlab(total * bs)
	xfers, runs := buildRuns(perDisk, slab, bs, buf)
	if err := s.be.ReadBlockRanges(xfers); err != nil {
		// The batched transfer failed partway; nothing was counted. Replay
		// the group through the per-block reference path: reads are
		// idempotent, so the replay either completes (transient fault) or
		// stops at a wave boundary with exactly the completed waves counted.
		ReleaseSlab(slab)
		return s.readGroupLoop(p, group, buf)
	}
	// Scatter each multi-block run from its scratch span to the frames the
	// individual operations addressed. Single-block runs already landed in
	// their frame directly.
	for _, r := range runs {
		for k, ref := range r.refs {
			copy(buf.Frame(ref.frame), r.data[k*bs:(k+1)*bs])
		}
	}
	ReleaseSlab(slab)
	s.accountGroup(IORead, p, group)
	return nil
}

// ParallelWriteGroup performs the given sequence of parallel writes from
// buf, equivalent in records, counts, and trace to calling
// ParallelWriteFrom on each element of group in order. A nil buf targets
// the system memory.
func (s *System) ParallelWriteGroup(p Portion, group [][]BlockIO, buf *Buffer) error {
	if buf == nil {
		buf = s.memBuf
	}
	if len(group) <= 1 {
		return s.writeGroupLoop(p, group, buf)
	}
	perDisk, total, err := s.groupRuns(p, group, true)
	if err != nil {
		return err
	}
	if perDisk == nil {
		return s.writeGroupLoop(p, group, buf)
	}
	bs := s.cfg.B
	slab := AcquireSlab(total * bs)
	xfers, runs := buildRuns(perDisk, slab, bs, buf)
	// Gather each multi-block run's frames into its scratch span before the
	// batched write; single-block runs write from their frame directly.
	for _, r := range runs {
		for k, ref := range r.refs {
			copy(r.data[k*bs:(k+1)*bs], buf.Frame(ref.frame))
		}
	}
	err = s.be.WriteBlockRanges(xfers)
	ReleaseSlab(slab)
	if err != nil {
		// The batched transfer failed partway (possibly mid-range); nothing
		// was counted. Replay through the per-block reference path, which
		// re-sends the same bytes from the unchanged buffer frames: every
		// block lands whole, and only completed waves are counted.
		return s.writeGroupLoop(p, group, buf)
	}
	s.accountGroup(IOWrite, p, group)
	return nil
}

// groupRuns validates every operation of the group and regroups its blocks
// per disk, sorted by physical block. A nil slice with a nil error reports
// a hazard the caller must serve with the one-at-a-time fallback: a frame
// reused across operations, or (for writes) a block written more than once,
// both of which make the group's outcome depend on operation order.
func (s *System) groupRuns(p Portion, group [][]BlockIO, write bool) ([][]rangeRef, int, error) {
	total := 0
	for _, ios := range group {
		if err := s.validate(p, ios); err != nil {
			return nil, 0, err
		}
		total += len(ios)
	}
	perDisk := make([][]rangeRef, s.cfg.D)
	frameSeen := make([]bool, s.cfg.Frames())
	for _, ios := range group {
		for _, io := range ios {
			if frameSeen[io.Frame] {
				return nil, 0, nil
			}
			frameSeen[io.Frame] = true
			perDisk[io.Disk] = append(perDisk[io.Disk], rangeRef{phys: s.physBlock(p, io.Block), frame: io.Frame})
		}
	}
	for _, refs := range perDisk {
		sort.Slice(refs, func(i, j int) bool { return refs[i].phys < refs[j].phys })
		if write {
			for i := 1; i < len(refs); i++ {
				if refs[i].phys == refs[i-1].phys {
					return nil, 0, nil
				}
			}
		}
	}
	return perDisk, total, nil
}

// groupRun is one coalesced multi-block run: the operations' refs in block
// order and the contiguous scratch span standing in for their frames.
type groupRun struct {
	refs []rangeRef
	data []Record
}

// buildRuns walks each disk's sorted refs and splits them into runs of
// consecutive physical blocks. Multi-block runs are backed by disjoint
// spans of slab and returned for the caller's gather/scatter copies;
// single-block runs transfer directly against their buffer frame.
func buildRuns(perDisk [][]rangeRef, slab []Record, bs int, buf *Buffer) ([]RangeXfer, []groupRun) {
	xfers := make([]RangeXfer, 0, len(perDisk))
	var runs []groupRun
	used := 0
	for disk, refs := range perDisk {
		for i := 0; i < len(refs); {
			j := i + 1
			for j < len(refs) && refs[j].phys == refs[j-1].phys+1 {
				j++
			}
			n := j - i
			data := buf.Frame(refs[i].frame)
			if n > 1 {
				data = slab[used*bs : (used+n)*bs]
				used += n
				runs = append(runs, groupRun{refs: refs[i:j], data: data})
			}
			xfers = append(xfers, RangeXfer{Disk: disk, Block: refs[i].phys, Data: data})
			i = j
		}
	}
	return xfers, runs
}

// accountGroup counts and traces the group's operations in order, exactly
// as the individual calls would, under one acquisition of the lock.
func (s *System) accountGroup(kind IOKind, p Portion, group [][]BlockIO) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ios := range group {
		if kind == IORead {
			for _, io := range ios {
				s.stats.PerDiskReads[io.Disk]++
			}
			s.stats.ParallelReads++
			s.stats.BlocksRead += len(ios)
		} else {
			for _, io := range ios {
				s.stats.PerDiskWrites[io.Disk]++
			}
			s.stats.ParallelWrites++
			s.stats.BlocksWritten += len(ios)
		}
		s.notifyLocked(kind, p, ios)
	}
}

// readGroupLoop is the one-at-a-time fallback (and the semantic reference)
// for ParallelReadGroup.
func (s *System) readGroupLoop(p Portion, group [][]BlockIO, buf *Buffer) error {
	for _, ios := range group {
		if err := s.ParallelReadInto(p, ios, buf); err != nil {
			return err
		}
	}
	return nil
}

// writeGroupLoop is the one-at-a-time fallback (and the semantic reference)
// for ParallelWriteGroup.
func (s *System) writeGroupLoop(p Portion, group [][]BlockIO, buf *Buffer) error {
	for _, ios := range group {
		if err := s.ParallelWriteFrom(p, ios, buf); err != nil {
			return err
		}
	}
	return nil
}
