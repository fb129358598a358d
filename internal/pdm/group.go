package pdm

import (
	"cmp"
	"slices"
)

// Grouped parallel I/O: the engine's pass runner knows a whole memoryload's
// operations at once (the M/BD striped reads of a load, or an MLD pass's
// M/BD independent write waves), so instead of issuing them one at a time it
// hands the group to the System, which regroups the blocks per disk,
// coalesces runs of consecutive physical blocks, and moves each run through
// one backend range transfer — a single pread/pwrite on file-backed disks
// instead of one syscall per block. A run's block vector points straight at
// the buffer frames its operations address, so the records move between
// storage and frames with no copy in between.
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
// scratch. Reads are idempotent and every replayed block overwrites its
// frame whole, whatever the failed attempt left there; writes re-send the
// same bytes from the unchanged buffer frames. So the replay is safe; it
// counts exactly the waves that complete before its own failure (no
// double-count — the failed batched attempt counted nothing) and lets
// transient faults that spare the per-block path recover entirely.
// Validation errors surface before any transfer and count nothing, same as
// the loop's up-front validation of its first wave would abort it.

// rangeRef locates one block of a grouped parallel I/O: its physical block
// number on its disk, and the buffer frame it moves to or from.
type rangeRef struct {
	phys, frame int
}

func byPhys(a, b rangeRef) int { return cmp.Compare(a.phys, b.phys) }

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
	ok, err := s.groupRuns(p, group, false, buf)
	if err != nil {
		return err
	}
	if !ok {
		return s.readGroupLoop(p, group, buf)
	}
	if err := s.be.ReadBlockRanges(s.buildRuns(buf)); err != nil {
		// The batched transfer failed partway; nothing was counted, and
		// some frames may hold a torn prefix. Replay the group through the
		// per-block reference path: it rewrites every frame whole and
		// either completes (transient fault) or stops at a wave boundary
		// with exactly the completed waves counted.
		return s.readGroupLoop(p, group, buf)
	}
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
	ok, err := s.groupRuns(p, group, true, buf)
	if err != nil {
		return err
	}
	if !ok {
		return s.writeGroupLoop(p, group, buf)
	}
	if err := s.be.WriteBlockRanges(s.buildRuns(buf)); err != nil {
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
// into buf.perDisk, each disk's sorted by physical block. false with a nil
// error reports a hazard the caller must serve with the one-at-a-time
// fallback: a frame reused across operations, or (for writes) a block
// written more than once, both of which make the group's outcome depend on
// operation order.
func (s *System) groupRuns(p Portion, group [][]BlockIO, write bool, buf *Buffer) (bool, error) {
	for _, ios := range group {
		if err := s.validate(p, ios); err != nil {
			return false, err
		}
	}
	if buf.perDisk == nil {
		buf.perDisk = make([][]rangeRef, s.cfg.D)
		buf.frameSeen = make([]bool, s.cfg.Frames())
	}
	perDisk, seen := buf.perDisk, buf.frameSeen
	for d := range perDisk {
		perDisk[d] = perDisk[d][:0]
	}
	clear(seen)
	for _, ios := range group {
		for _, io := range ios {
			if seen[io.Frame] {
				return false, nil
			}
			seen[io.Frame] = true
			perDisk[io.Disk] = append(perDisk[io.Disk], rangeRef{phys: s.physBlock(p, io.Block), frame: io.Frame})
		}
	}
	for _, refs := range perDisk {
		// Striped groups arrive in block order already; only scattered
		// ones (independent MLD writes, inverse-MLD reads) need the sort.
		if !slices.IsSortedFunc(refs, byPhys) {
			slices.SortFunc(refs, byPhys)
		}
		if write {
			for i := 1; i < len(refs); i++ {
				if refs[i].phys == refs[i-1].phys {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// buildRuns walks each disk's sorted blocks in buf.perDisk and splits them
// into runs of consecutive physical blocks, one transfer per run with a
// vector over the blocks' frames. The batch lives in the buffer's scratch:
// the group's frames are distinct, so it never holds more than one vector
// element, or one run, per frame.
func (s *System) buildRuns(buf *Buffer) []RangeXfer {
	xs, vecs := buf.scratch(s.cfg)
	nx, nv := 0, 0
	for disk, refs := range buf.perDisk {
		for i := 0; i < len(refs); {
			j := i + 1
			for j < len(refs) && refs[j].phys == refs[j-1].phys+1 {
				j++
			}
			v := vecs[nv : nv+j-i : nv+j-i]
			for k := range v {
				v[k] = buf.Frame(refs[i+k].frame)
			}
			xs[nx] = RangeXfer{Disk: disk, Block: refs[i].phys, Blocks: v}
			nx++
			nv += j - i
			i = j
		}
	}
	return xs[:nx]
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
