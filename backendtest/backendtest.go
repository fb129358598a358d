// Package backendtest is a reusable conformance harness for
// implementations of the bmmc.Backend storage interface. Third-party
// backends (object storage, network block services, compressed files)
// self-certify against the documented contract by calling Run from a
// regular Go test:
//
//	func TestMyBackend(t *testing.T) {
//	    backendtest.Run(t, func(t *testing.T) bmmc.Backend {
//	        return mypkg.NewBackend(t.TempDir())
//	    })
//	}
//
// The harness exercises exactly the guarantees the disk system above the
// backend relies on: geometry sizing at Open, full-block read/write round
// trips, the run contract of ReadBlockRanges/WriteBlockRanges (multi-block
// runs, several runs per disk in one call, block vectors whose elements sit
// anywhere in memory, rejection of malformed runs and vectors), tolerance
// of concurrent calls from distinct goroutines with per-disk serialization
// owned by the backend, independence from the caller's transfer buffers
// after a call returns, and Sync/Close semantics. The library's own
// MemBackend, FileBackend, and ShardedBackend pass this harness in CI (see
// the package tests).
package backendtest

import (
	"fmt"
	"sync"
	"testing"

	bmmc "repro"
)

// Factory returns a fresh, unopened Backend for one subtest. The harness
// calls Open itself (exactly once per returned backend, per the contract)
// and closes the backend when the subtest ends; factories needing scratch
// directories should allocate them with t.TempDir.
type Factory func(t *testing.T) bmmc.Backend

// Harness geometry: small enough to be fast, large enough that batches,
// stripes, and concurrency are all exercised.
const (
	numDisks  = 4
	numBlocks = 8
	blockSize = 4
)

// rec returns the canonical record for position i of (disk, block) under
// generation gen, so every block's content is distinct and self-describing.
func rec(gen, disk, block, i int) bmmc.Record {
	return bmmc.Record{
		Key: uint64(gen)<<32 | uint64(disk)<<16 | uint64(block)<<8 | uint64(i),
		Tag: uint64(disk*numBlocks+block) ^ uint64(gen),
	}
}

// fill writes generation gen's canonical content into buf for (disk, block).
func fill(buf []bmmc.Record, gen, disk, block int) {
	for i := range buf {
		buf[i] = rec(gen, disk, block, i)
	}
}

// one wraps a single block as a one-element block vector.
func one(block []bmmc.Record) [][]bmmc.Record { return [][]bmmc.Record{block} }

// open runs the factory and opens the result with the harness geometry,
// registering cleanup.
func open(t *testing.T, factory Factory) bmmc.Backend {
	t.Helper()
	be := factory(t)
	if be == nil {
		t.Fatal("factory returned a nil Backend")
	}
	if err := be.Open(numDisks, numBlocks, blockSize); err != nil {
		t.Fatalf("Open(%d disks, %d blocks, %d records/block): %v", numDisks, numBlocks, blockSize, err)
	}
	t.Cleanup(func() { be.Close() })
	return be
}

// writeAll stores generation gen's canonical content in every block,
// batching one block per disk the way the disk system's parallel writes do.
func writeAll(t *testing.T, be bmmc.Backend, gen int) {
	t.Helper()
	for block := 0; block < numBlocks; block++ {
		xfers := make([]bmmc.RangeXfer, numDisks)
		for disk := 0; disk < numDisks; disk++ {
			data := make([]bmmc.Record, blockSize)
			fill(data, gen, disk, block)
			xfers[disk] = bmmc.RangeXfer{Disk: disk, Block: block, Blocks: one(data)}
		}
		if err := be.WriteBlockRanges(xfers); err != nil {
			t.Fatalf("WriteBlockRanges(stripe %d): %v", block, err)
		}
	}
}

// checkAll reads every block back (one batch per stripe) and verifies
// generation gen's content.
func checkAll(t *testing.T, be bmmc.Backend, gen int) {
	t.Helper()
	for block := 0; block < numBlocks; block++ {
		xfers := make([]bmmc.RangeXfer, numDisks)
		for disk := 0; disk < numDisks; disk++ {
			xfers[disk] = bmmc.RangeXfer{Disk: disk, Block: block, Blocks: one(make([]bmmc.Record, blockSize))}
		}
		if err := be.ReadBlockRanges(xfers); err != nil {
			t.Fatalf("ReadBlockRanges(stripe %d): %v", block, err)
		}
		for disk := 0; disk < numDisks; disk++ {
			for i, got := range xfers[disk].Blocks[0] {
				if want := rec(gen, disk, block, i); got != want {
					t.Fatalf("disk %d block %d record %d: got %+v, want %+v", disk, block, i, got, want)
				}
			}
		}
	}
}

// Run exercises the Backend contract against backends produced by factory.
// Every subtest gets a fresh backend; failures name the violated clause.
func Run(t *testing.T, factory Factory) {
	t.Run("RoundTrip", func(t *testing.T) {
		// Every (disk, block) stores and returns a full block independently;
		// overwrites replace content.
		be := open(t, factory)
		writeAll(t, be, 1)
		checkAll(t, be, 1)
		writeAll(t, be, 2) // overwrite every block
		checkAll(t, be, 2)
	})

	t.Run("RangeContract", func(t *testing.T) {
		checkRanges(t, open(t, factory))
	})

	t.Run("BufferAliasing", func(t *testing.T) {
		// WriteBlockRanges must capture the transfer's content before returning:
		// the disk system reuses its buffers and vectors across batches, so
		// a backend holding a reference to a block corrupts the previous
		// write.
		be := open(t, factory)
		buf := make([]bmmc.Record, blockSize)
		for block := 0; block < numBlocks; block++ {
			fill(buf, 3, 0, block)
			if err := be.WriteBlockRanges([]bmmc.RangeXfer{{Disk: 0, Block: block, Blocks: one(buf)}}); err != nil {
				t.Fatalf("WriteBlockRanges(block %d): %v", block, err)
			}
			// Scribble over the shared buffer before the next use.
			for i := range buf {
				buf[i] = bmmc.Record{Key: ^uint64(0), Tag: ^uint64(0)}
			}
		}
		for block := 0; block < numBlocks; block++ {
			got := make([]bmmc.Record, blockSize)
			if err := be.ReadBlockRanges([]bmmc.RangeXfer{{Disk: 0, Block: block, Blocks: one(got)}}); err != nil {
				t.Fatalf("ReadBlockRanges(block %d): %v", block, err)
			}
			for i, g := range got {
				if want := rec(3, 0, block, i); g != want {
					t.Fatalf("block %d record %d: backend aliased the caller's buffer (got %+v, want %+v)", block, i, g, want)
				}
			}
		}
	})

	t.Run("ConcurrentReadWrite", func(t *testing.T) {
		// The pipelined pass runner overlaps a prefetch read with an
		// in-flight write on distinct blocks of the same disks. Both
		// must proceed without corruption (run this harness under -race).
		be := open(t, factory)
		writeAll(t, be, 4)
		const half = numBlocks / 2
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() { // reader: blocks 0..half-1, generation 4
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for block := 0; block < half; block++ {
					xfers := make([]bmmc.RangeXfer, numDisks)
					for disk := 0; disk < numDisks; disk++ {
						xfers[disk] = bmmc.RangeXfer{Disk: disk, Block: block, Blocks: one(make([]bmmc.Record, blockSize))}
					}
					if err := be.ReadBlockRanges(xfers); err != nil {
						errs <- fmt.Errorf("concurrent read: %w", err)
						return
					}
					for disk := 0; disk < numDisks; disk++ {
						for i, got := range xfers[disk].Blocks[0] {
							if want := rec(4, disk, block, i); got != want {
								errs <- fmt.Errorf("torn read at disk %d block %d record %d: %+v", disk, block, i, got)
								return
							}
						}
					}
				}
			}
		}()
		go func() { // writer: blocks half..numBlocks-1, new generation
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for block := half; block < numBlocks; block++ {
					xfers := make([]bmmc.RangeXfer, numDisks)
					for disk := 0; disk < numDisks; disk++ {
						data := make([]bmmc.Record, blockSize)
						fill(data, 5+round, disk, block)
						xfers[disk] = bmmc.RangeXfer{Disk: disk, Block: block, Blocks: one(data)}
					}
					if err := be.WriteBlockRanges(xfers); err != nil {
						errs <- fmt.Errorf("concurrent write: %w", err)
						return
					}
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Final state: low blocks still generation 4, high blocks the last
		// written generation.
		for block := half; block < numBlocks; block++ {
			got := make([]bmmc.Record, blockSize)
			for disk := 0; disk < numDisks; disk++ {
				if err := be.ReadBlockRanges([]bmmc.RangeXfer{{Disk: disk, Block: block, Blocks: one(got)}}); err != nil {
					t.Fatal(err)
				}
				for i, g := range got {
					if want := rec(12, disk, block, i); g != want {
						t.Fatalf("disk %d block %d record %d after concurrent writes: got %+v, want %+v", disk, block, i, g, want)
					}
				}
			}
		}
	})

	t.Run("PerDiskSerialization", func(t *testing.T) {
		// Distinct goroutines may address the same disk concurrently; the
		// backend owns per-disk serialization. Hammer one disk from many
		// goroutines on disjoint blocks and verify nothing tears.
		be := open(t, factory)
		var wg sync.WaitGroup
		errs := make(chan error, numBlocks)
		for block := 0; block < numBlocks; block++ {
			wg.Add(1)
			go func(block int) {
				defer wg.Done()
				data := make([]bmmc.Record, blockSize)
				got := make([]bmmc.Record, blockSize)
				for round := 0; round < 16; round++ {
					fill(data, 100+round, 1, block)
					if err := be.WriteBlockRanges([]bmmc.RangeXfer{{Disk: 1, Block: block, Blocks: one(data)}}); err != nil {
						errs <- fmt.Errorf("write disk 1 block %d: %w", block, err)
						return
					}
					if err := be.ReadBlockRanges([]bmmc.RangeXfer{{Disk: 1, Block: block, Blocks: one(got)}}); err != nil {
						errs <- fmt.Errorf("read disk 1 block %d: %w", block, err)
						return
					}
					for i, g := range got {
						if want := rec(100+round, 1, block, i); g != want {
							errs <- fmt.Errorf("disk 1 block %d record %d round %d: got %+v, want %+v", block, i, round, g, want)
							return
						}
					}
				}
			}(block)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})

	t.Run("SyncClose", func(t *testing.T) {
		// Sync may be called at any point between transfers and must not
		// disturb stored data; Close succeeds after Sync and ends the
		// backend's life (no transfers follow — the harness never reuses it).
		be := open(t, factory)
		writeAll(t, be, 7)
		if err := be.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		checkAll(t, be, 7)
		if err := be.Sync(); err != nil {
			t.Fatalf("second Sync: %v", err)
		}
		if err := be.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// checkRanges exercises the run contract on an opened backend: multi-block
// runs round-trip, one call may carry several runs on the same disk, a
// run's vector elements may sit anywhere in memory and in any order, and a
// malformed run — an element that is not exactly one block, an empty
// vector, a run reaching past the end of its disk or starting before it —
// is rejected without touching the disk.
func checkRanges(t *testing.T, be bmmc.Backend) {
	t.Helper()
	writeAll(t, be, 20)

	// A vector over one contiguous slab, the shape of a stream or bulk
	// load: block k of the run is slab[k*B:(k+1)*B].
	slabVec := func(blocks int) [][]bmmc.Record {
		slab := make([]bmmc.Record, blocks*blockSize)
		v := make([][]bmmc.Record, blocks)
		for k := range v {
			v[k] = slab[k*blockSize : (k+1)*blockSize]
		}
		return v
	}
	// A vector whose elements are frames of one arena taken in a shuffled
	// order with gaps — neither adjacent nor in memory order — the shape
	// of a grouped parallel I/O over buffer frames.
	scatterVec := func(blocks int) [][]bmmc.Record {
		arena := make([]bmmc.Record, 3*blocks*blockSize)
		v := make([][]bmmc.Record, blocks)
		for k := range v {
			f := 3 * (blocks - 1 - k) // descending, every third frame
			if k%2 == 1 {
				f++ // and not evenly spaced
			}
			v[k] = arena[f*blockSize : (f+1)*blockSize]
		}
		return v
	}
	run := func(vec func(int) [][]bmmc.Record, gen, disk, block0, blocks int) bmmc.RangeXfer {
		v := vec(blocks)
		for k, blk := range v {
			fill(blk, gen, disk, block0+k)
		}
		return bmmc.RangeXfer{Disk: disk, Block: block0, Blocks: v}
	}

	// One call, two disjoint runs on disk 2 (blocks 0..2 and 5..7) plus a
	// single-block run on disk 0, and a scattered-frame run on disk 3.
	writes := []bmmc.RangeXfer{
		run(slabVec, 21, 2, 0, 3), run(slabVec, 21, 0, 4, 1), run(scatterVec, 21, 2, 5, 3),
		run(scatterVec, 21, 3, 1, 4),
	}
	if err := be.WriteBlockRanges(writes); err != nil {
		t.Fatalf("WriteBlockRanges(several runs per disk): %v", err)
	}
	gen := func(disk, block int) int {
		switch {
		case disk == 2 && (block <= 2 || block >= 5), disk == 0 && block == 4, disk == 3 && block >= 1 && block <= 4:
			return 21
		}
		return 20
	}

	// Read the whole of disks 2 and 0 back as one full-disk run each, disk
	// 2 once more as two runs in the same call, and disk 3 through
	// scattered frames.
	reads := []bmmc.RangeXfer{
		{Disk: 2, Block: 0, Blocks: slabVec(numBlocks)},
		{Disk: 0, Block: 0, Blocks: scatterVec(numBlocks)},
		{Disk: 2, Block: 1, Blocks: slabVec(2)},
		{Disk: 2, Block: 4, Blocks: scatterVec(3)},
		{Disk: 3, Block: 0, Blocks: scatterVec(numBlocks)},
	}
	if err := be.ReadBlockRanges(reads); err != nil {
		t.Fatalf("ReadBlockRanges(several runs per disk): %v", err)
	}
	for _, x := range reads {
		for k, blk := range x.Blocks {
			block := x.Block + k
			for i, got := range blk {
				if want := rec(gen(x.Disk, block), x.Disk, block, i); got != want {
					t.Fatalf("run [disk %d, block %d, %d blocks]: block %d record %d: got %+v, want %+v",
						x.Disk, x.Block, len(x.Blocks), block, i, got, want)
				}
			}
		}
	}
	checkUntouched := func(disk int) {
		t.Helper()
		for block := 0; block < numBlocks; block++ {
			got := make([]bmmc.Record, blockSize)
			if err := be.ReadBlockRanges([]bmmc.RangeXfer{{Disk: disk, Block: block, Blocks: one(got)}}); err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if want := rec(gen(disk, block), disk, block, i); g != want {
					t.Fatalf("disk %d block %d record %d after rejected runs: got %+v, want %+v", disk, block, i, g, want)
				}
			}
		}
	}
	short := slabVec(2)
	short[1] = short[1][:blockSize-1]
	long := scatterVec(2)
	long[0] = append(long[0][:blockSize:blockSize], bmmc.Record{})
	bad := []struct {
		name string
		x    bmmc.RangeXfer
	}{
		{"a short element", bmmc.RangeXfer{Disk: 1, Block: 0, Blocks: short}},
		{"a long element", bmmc.RangeXfer{Disk: 1, Block: 2, Blocks: long}},
		{"an empty vector", bmmc.RangeXfer{Disk: 1, Block: 0, Blocks: nil}},
		{"past the end", bmmc.RangeXfer{Disk: 1, Block: numBlocks - 1, Blocks: scatterVec(2)}},
		{"a negative block", bmmc.RangeXfer{Disk: 1, Block: -1, Blocks: slabVec(1)}},
	}
	for _, c := range bad {
		for k, blk := range c.x.Blocks {
			fill(blk, 22, 1, c.x.Block+k)
		}
		if err := be.WriteBlockRanges([]bmmc.RangeXfer{c.x}); err == nil {
			t.Errorf("WriteBlockRanges accepted a run with %s", c.name)
		}
		if err := be.ReadBlockRanges([]bmmc.RangeXfer{c.x}); err == nil {
			t.Errorf("ReadBlockRanges accepted a run with %s", c.name)
		}
	}
	checkUntouched(1)
}
