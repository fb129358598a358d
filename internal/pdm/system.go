package pdm

import (
	"errors"
	"fmt"
	"sync"
)

// Portion selects one of the two record regions on the disk system. As in
// Section 3 of the paper, one-pass algorithms read from a source portion and
// write to a disjoint target portion, swapping roles between chained passes
// so no source block is overwritten before it is read.
type Portion int

const (
	// PortionA is the region that initially holds the input records.
	PortionA Portion = 0
	// PortionB is the initially empty second region.
	PortionB Portion = 1
)

// BlockIO names one block transfer within a parallel I/O: the block at
// position Block on disk Disk (relative to a portion) moves to or from
// memory frame Frame.
type BlockIO struct {
	Disk  int // disk number, 0..D-1
	Block int // block position on the disk within the portion, 0..N/BD-1
	Frame int // memory frame index, 0..M/B-1
}

// System is a simulated parallel disk system: D disks each holding two
// portions of N/BD blocks, plus an M-record memory. All block transfers go
// through ParallelRead/ParallelWrite (or the striped wrappers), which
// enforce the model's one-block-per-disk rule and count every operation.
// The bytes themselves live in a pluggable storage Backend.
//
// A System is the disk-resident state of one dataset: the records, the
// storage backend they live on, and the source/target portion roles that
// track which physical portion holds the current data. The memory and
// portion roles are execution state shared by every pass over the dataset,
// so runs must be serialized: engines (and anything else mutating the
// records) hold the run lock (AcquireRun/ReleaseRun) for the whole run,
// while readers of data-at-rest (dumps, verification) hold the shared read
// lock (AcquireRead/ReleaseRead) and may overlap each other freely.
type System struct {
	cfg      Config
	be       Backend
	mem      []Record
	memBuf   *Buffer // wraps mem so all I/O funnels through the buffer path
	stats    Stats
	source   Portion
	observer Observer // optional per-operation trace hook

	mu    sync.Mutex   // guards stats and observer across overlapping operations
	runMu sync.RWMutex // dataset lock: writers are runs, readers are dumps
}

// NewSystem builds a System whose block storage is the given Backend. The
// backend is opened here (D disks, 2N/BD blocks each) and owned by the
// System from then on: Close closes it.
func NewSystem(cfg Config, be Backend) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if be == nil {
		return nil, fmt.Errorf("pdm: nil backend")
	}
	s := &System{
		cfg:    cfg,
		be:     be,
		mem:    make([]Record, cfg.M),
		stats:  newStats(cfg.D),
		source: PortionA,
	}
	s.memBuf = &Buffer{b: cfg.B, recs: s.mem}
	if err := be.Open(cfg.D, 2*cfg.BlocksPerDisk(), cfg.B); err != nil {
		return nil, err
	}
	return s, nil
}

// NewMemSystem is shorthand for NewSystem(cfg, MemBackend()).
func NewMemSystem(cfg Config) (*System, error) { return NewSystem(cfg, MemBackend()) }

// Close closes the storage backend. The System must not be used afterwards.
func (s *System) Close() error { return s.be.Close() }

// Sync flushes the storage backend's buffered writes to stable storage.
func (s *System) Sync() error { return s.be.Sync() }

// Config returns the system's model parameters.
func (s *System) Config() Config { return s.cfg }

// Stats returns a copy of the accumulated I/O statistics. Safe to call
// concurrently with in-flight parallel I/O (e.g. while a pipelined pass is
// running); the copy is a consistent snapshot between operations.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.PerDiskReads = append([]int(nil), s.stats.PerDiskReads...)
	out.PerDiskWrites = append([]int(nil), s.stats.PerDiskWrites...)
	return out
}

// ResetStats zeroes the I/O counters.
func (s *System) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Reset()
}

// AcquireRun takes the dataset's exclusive run lock. Exactly one run —
// a permutation execution, a record load, anything that mutates the stored
// records or swaps the portion roles — may hold it at a time, and it
// excludes AcquireRead readers for the duration. The lock is not
// reentrant: code already inside a run must not re-acquire it.
func (s *System) AcquireRun() { s.runMu.Lock() }

// ReleaseRun releases the exclusive run lock.
func (s *System) ReleaseRun() { s.runMu.Unlock() }

// AcquireRead takes the dataset's shared read lock: any number of readers
// of data-at-rest (DumpRecords, verification scans) may hold it
// concurrently, and it excludes runs. Backends already serialize per-disk
// access, so concurrent readers are safe all the way down.
func (s *System) AcquireRead() { s.runMu.RLock() }

// ReleaseRead releases the shared read lock.
func (s *System) ReleaseRead() { s.runMu.RUnlock() }

// Source returns the portion currently holding the input of the next pass.
func (s *System) Source() Portion { return s.source }

// Target returns the portion the next pass writes to.
func (s *System) Target() Portion { return 1 - s.source }

// SwapPortions exchanges the source and target roles, as done between
// chained one-pass permutations.
func (s *System) SwapPortions() { s.source = 1 - s.source }

// Mem returns the M-record memory. Callers permute records in place; frame
// f occupies Mem()[f*B : (f+1)*B].
func (s *System) Mem() []Record { return s.mem }

// Frame returns the B-record slice of memory backing frame f.
func (s *System) Frame(f int) []Record {
	return s.mem[f*s.cfg.B : (f+1)*s.cfg.B]
}

// validate checks a batch of block transfers against the model's rules:
// at most one block per disk per operation, and all indices in range.
func (s *System) validate(p Portion, ios []BlockIO) error {
	if len(ios) == 0 {
		return errors.New("pdm: empty parallel I/O")
	}
	if len(ios) > s.cfg.D {
		return fmt.Errorf("pdm: %d blocks in one parallel I/O exceeds D = %d", len(ios), s.cfg.D)
	}
	if p != PortionA && p != PortionB {
		return fmt.Errorf("pdm: invalid portion %d", p)
	}
	// The duplicate checks scan earlier entries rather than building a set:
	// len(ios) <= D and D is small, so the quadratic scan beats a per-call
	// map — validate runs once per counted parallel I/O, squarely on the
	// hot path.
	for i, io := range ios {
		if io.Disk < 0 || io.Disk >= s.cfg.D {
			return fmt.Errorf("pdm: disk %d out of range [0,%d)", io.Disk, s.cfg.D)
		}
		if io.Block < 0 || io.Block >= s.cfg.BlocksPerDisk() {
			return fmt.Errorf("pdm: block %d out of range [0,%d)", io.Block, s.cfg.BlocksPerDisk())
		}
		if io.Frame < 0 || io.Frame >= s.cfg.Frames() {
			return fmt.Errorf("pdm: frame %d out of range [0,%d)", io.Frame, s.cfg.Frames())
		}
		for _, prev := range ios[:i] {
			if prev.Disk == io.Disk {
				return fmt.Errorf("pdm: two blocks on disk %d in one parallel I/O", io.Disk)
			}
			if prev.Frame == io.Frame {
				return fmt.Errorf("pdm: frame %d used twice in one parallel I/O", io.Frame)
			}
		}
	}
	return nil
}

// physBlock maps a portion-relative block position to the disk's physical
// block number.
func (s *System) physBlock(p Portion, block int) int {
	return int(p)*s.cfg.BlocksPerDisk() + block
}

// stripeXfers fills xs with the D one-block runs moving stripe `stripe`
// of portion p to or from recs, the stripe's D*B records in address
// order: block d of the stripe is recs[d*B:(d+1)*B] and lives on disk d.
// vecs (D entries) backs the runs' vectors.
func (s *System) stripeXfers(xs []RangeXfer, vecs [][]Record, p Portion, stripe int, recs []Record) {
	b := s.cfg.B
	for disk := range xs {
		vecs[disk] = recs[disk*b : (disk+1)*b]
		xs[disk] = RangeXfer{Disk: disk, Block: s.physBlock(p, stripe), Blocks: vecs[disk : disk+1 : disk+1]}
	}
}

// ParallelRead performs one parallel read: every listed block (at most one
// per disk) is copied from portion p into its memory frame. It counts as
// exactly one parallel I/O regardless of how many disks participate.
func (s *System) ParallelRead(p Portion, ios []BlockIO) error {
	return s.ParallelReadInto(p, ios, s.memBuf)
}

// ParallelWrite performs one parallel write: every listed memory frame is
// copied to its block (at most one per disk) in portion p. One parallel I/O.
func (s *System) ParallelWrite(p Portion, ios []BlockIO) error {
	return s.ParallelWriteFrom(p, ios, s.memBuf)
}

// ReadStripe reads stripe `stripe` of portion p — one block from every disk
// — into D consecutive frames starting at frame0. One parallel I/O.
func (s *System) ReadStripe(p Portion, stripe, frame0 int) error {
	ios := make([]BlockIO, s.cfg.D)
	for disk := range ios {
		ios[disk] = BlockIO{Disk: disk, Block: stripe, Frame: frame0 + disk}
	}
	return s.ParallelRead(p, ios)
}

// WriteStripe writes D consecutive frames starting at frame0 to stripe
// `stripe` of portion p. One parallel I/O.
func (s *System) WriteStripe(p Portion, stripe, frame0 int) error {
	ios := make([]BlockIO, s.cfg.D)
	for disk := range ios {
		ios[disk] = BlockIO{Disk: disk, Block: stripe, Frame: frame0 + disk}
	}
	return s.ParallelWrite(p, ios)
}

// The helpers below bypass the I/O accounting. They exist for test setup and
// post-run verification only — algorithms must never call them.

// LoadRecords fills portion p with the given N records laid out per
// Figure 1 (striped, record index varying fastest within a block). Not
// counted as I/O. As with DumpRecords, p names a fixed physical portion:
// pass Source() to replace the records the next pass will read.
func (s *System) LoadRecords(p Portion, records []Record) error {
	if len(records) != s.cfg.N {
		return fmt.Errorf("pdm: LoadRecords got %d records, want N = %d", len(records), s.cfg.N)
	}
	// Hand the backend one whole stripe per call, with the transfer
	// slices aliasing the caller's records — address order within a
	// stripe is exactly D consecutive blocks, one per disk, so nothing
	// needs staging through a scratch block.
	xs, vecs := make([]RangeXfer, s.cfg.D), make([][]Record, s.cfg.D)
	stripeRecs := s.cfg.B * s.cfg.D
	for stripe := 0; stripe < s.cfg.Stripes(); stripe++ {
		s.stripeXfers(xs, vecs, p, stripe, records[stripe*stripeRecs:(stripe+1)*stripeRecs])
		if err := s.be.WriteBlockRanges(xs); err != nil {
			return err
		}
	}
	return nil
}

// DumpRecords returns the N records of portion p in address order. Not
// counted as I/O. Note that p is a fixed physical portion, not a role: the
// source/target roles swap after every pass (SwapPortions), so after an odd
// number of passes the permuted output sits in PortionB. Callers that want
// "the current records" should pass Source(), which always names the
// portion holding the output of the most recent pass.
func (s *System) DumpRecords(p Portion) ([]Record, error) {
	out := make([]Record, s.cfg.N)
	xs, vecs := make([]RangeXfer, s.cfg.D), make([][]Record, s.cfg.D)
	stripeRecs := s.cfg.B * s.cfg.D
	for stripe := 0; stripe < s.cfg.Stripes(); stripe++ {
		s.stripeXfers(xs, vecs, p, stripe, out[stripe*stripeRecs:(stripe+1)*stripeRecs])
		if err := s.be.ReadBlockRanges(xs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RecordAt returns the record stored at address x in portion p. Not counted
// as I/O; intended for spot checks in tests. Backends offering copy-free
// block views serve it without a block copy.
func (s *System) RecordAt(p Portion, x uint64) (Record, error) {
	disk := s.cfg.DiskOf(x)
	block := s.physBlock(p, s.cfg.StripeOf(x))
	if v, ok := s.be.(BlockViewer); ok {
		if recs, ok := v.BlockView(disk, block); ok {
			return recs[s.cfg.Offset(x)], nil
		}
	}
	buf := AcquireSlab(s.cfg.B)
	defer ReleaseSlab(buf)
	xf := []RangeXfer{{Disk: disk, Block: block, Blocks: [][]Record{buf}}}
	if err := s.be.ReadBlockRanges(xf); err != nil {
		return Record{}, err
	}
	return buf[s.cfg.Offset(x)], nil
}
