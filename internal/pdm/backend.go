package pdm

import (
	"fmt"
	"sync"
)

// RangeXfer names one contiguous run of physical blocks moving to or from a
// single disk: blocks [Block, Block+len(Data)/B) of disk Disk. Block
// numbers are physical — the System resolves portion-relative positions
// before calling the backend. A single-block transfer is a run of length 1.
type RangeXfer struct {
	Disk  int
	Block int
	Data  []Record // a whole number of blocks, len(Data) % blockSize == 0
}

// Backend abstracts the storage a System's D disks live on. Its one
// transfer primitive is the block run: each ReadBlockRanges/WriteBlockRanges
// call carries a batch of runs, and the per-operation path hands it the
// one-block runs of a single parallel I/O (one per disk), while the grouped
// path hands it the coalesced runs of a whole group — possibly several per
// disk. A backend services the runs of one call in any order or in
// parallel.
//
// Implementations must tolerate concurrent calls from distinct goroutines:
// the pipelined pass runner overlaps a prefetch read with an in-flight
// write. Concurrent calls never touch the same (disk, block) pair in
// conflicting ways during a correctly synchronized pass, but they may touch
// the same disk, so per-disk serialization is the backend's responsibility.
// A backend must not retain a transfer's Data after the call returns.
//
// The System layered on top performs all model validation (one block per
// disk per operation) and all cost accounting; a Backend only moves bytes,
// exactly the records the equivalent per-block sequence would.
type Backend interface {
	// Open sizes the backend before any transfer: numDisks disks, each
	// holding numBlocks blocks of blockSize records. Called exactly once.
	Open(numDisks, numBlocks, blockSize int) error
	// ReadBlockRanges fills each transfer's Data from its run of blocks.
	ReadBlockRanges(xfers []RangeXfer) error
	// WriteBlockRanges stores each transfer's Data at its run of blocks.
	WriteBlockRanges(xfers []RangeXfer) error
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases the backend's resources. No transfers follow.
	Close() error
}

// concurrentSetter is implemented by backends that can toggle concurrent
// per-disk dispatch within one batch; System.SetConcurrent forwards to it.
type concurrentSetter interface {
	SetConcurrent(on bool)
}

// BlockViewer is an optional Backend extension: backends whose storage is
// plain host memory can expose a physical block's records as a direct
// view, letting bulk readers (System.DumpTo, System.RecordAt) skip the
// copy through a transfer buffer. The view aliases live storage — callers
// may only read it, and only while they hold a lock excluding writes to
// the block (the dataset read lock on every bulk path). Backends without
// an in-memory representation simply don't implement it.
type BlockViewer interface {
	// BlockView returns a read-only view of physical block `block` of
	// disk `disk`, or false when no copy-free view is available.
	BlockView(disk, block int) ([]Record, bool)
}

// diskArray is the bookkeeping the built-in backends share: the geometry
// fixed at Open, one mutex per disk (the model has one I/O channel per
// disk), and the optional concurrent dispatch of a batch's runs across
// goroutines.
type diskArray struct {
	mu         []sync.Mutex
	numBlocks  int
	blockSize  int
	concurrent bool
}

// open fixes the geometry, rejecting a second Open.
func (a *diskArray) open(numDisks, numBlocks, blockSize int) error {
	if a.mu != nil {
		return fmt.Errorf("pdm: backend opened twice")
	}
	a.mu = make([]sync.Mutex, numDisks)
	a.numBlocks, a.blockSize = numBlocks, blockSize
	return nil
}

// SetConcurrent toggles per-disk goroutine dispatch within one batch.
func (a *diskArray) SetConcurrent(on bool) { a.concurrent = on }

// check rejects a run on a nonexistent disk, one that is not a positive
// whole number of blocks, or one reaching past the end of the disk.
func (a *diskArray) check(x RangeXfer) error {
	if x.Disk < 0 || x.Disk >= len(a.mu) {
		return fmt.Errorf("pdm: disk %d out of range [0,%d)", x.Disk, len(a.mu))
	}
	n := len(x.Data)
	if n <= 0 || n%a.blockSize != 0 {
		return fmt.Errorf("pdm: range of %d records is not a positive multiple of block size %d", n, a.blockSize)
	}
	if end := x.Block + n/a.blockSize; x.Block < 0 || end > a.numBlocks {
		return fmt.Errorf("pdm: block range [%d,%d) out of range [0,%d)", x.Block, end, a.numBlocks)
	}
	return nil
}

// each checks and runs one transfer per element under its disk's mutex,
// sequentially or on one goroutine per transfer, and returns the first
// error. A batch may repeat a disk (distinct runs); the mutex serializes
// those.
func (a *diskArray) each(xfers []RangeXfer, op func(RangeXfer) error) error {
	if a.mu == nil {
		return fmt.Errorf("pdm: backend not opened")
	}
	if !a.concurrent || len(xfers) == 1 {
		for _, x := range xfers {
			if err := a.run(x, op); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(xfers))
	var wg sync.WaitGroup
	for i, x := range xfers {
		wg.Add(1)
		go func(i int, x RangeXfer) {
			defer wg.Done()
			errs[i] = a.run(x, op)
		}(i, x)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run checks one transfer and performs it under its disk's mutex.
func (a *diskArray) run(x RangeXfer, op func(RangeXfer) error) error {
	if err := a.check(x); err != nil {
		return err
	}
	a.mu[x.Disk].Lock()
	defer a.mu[x.Disk].Unlock()
	return op(x)
}

// memBackend is the RAM storage backend: one in-memory block array per
// disk, serving every run with one copy.
type memBackend struct {
	diskArray
	data [][]Record
}

// MemBackend returns the RAM storage backend: one in-memory block array per
// disk. It is the default backend of a Permuter.
func MemBackend() Backend { return &memBackend{} }

// Open implements Backend.
func (b *memBackend) Open(numDisks, numBlocks, blockSize int) error {
	if err := b.open(numDisks, numBlocks, blockSize); err != nil {
		return err
	}
	b.data = make([][]Record, numDisks)
	for i := range b.data {
		b.data[i] = make([]Record, numBlocks*blockSize)
	}
	return nil
}

// ReadBlockRanges implements Backend.
func (b *memBackend) ReadBlockRanges(xfers []RangeXfer) error {
	return b.each(xfers, func(x RangeXfer) error {
		copy(x.Data, b.data[x.Disk][x.Block*b.blockSize:])
		return nil
	})
}

// WriteBlockRanges implements Backend.
func (b *memBackend) WriteBlockRanges(xfers []RangeXfer) error {
	return b.each(xfers, func(x RangeXfer) error {
		copy(b.data[x.Disk][x.Block*b.blockSize:], x.Data)
		return nil
	})
}

// BlockView implements BlockViewer: the view is the stored block itself.
func (b *memBackend) BlockView(disk, block int) ([]Record, bool) {
	if disk < 0 || disk >= len(b.data) || block < 0 || block >= b.numBlocks {
		return nil, false
	}
	return b.data[disk][block*b.blockSize : (block+1)*b.blockSize], true
}

// Sync implements Backend; RAM holds nothing to flush.
func (b *memBackend) Sync() error { return nil }

// Close implements Backend; RAM holds no external resources.
func (b *memBackend) Close() error { return nil }
