package pdm

import (
	"fmt"
	"os"
	"path/filepath"
)

// fileBackend stores each simulated disk in one operating-system file,
// with records serialized at RecordBytes each. It exists so that
// experiments can be run against real file I/O: the parallel-I/O counts
// are identical to MemBackend runs (the model counts operations, not
// seconds), but wall-clock benchmarks then include genuine storage
// latency.
//
// On 64-bit little-endian unix hosts each file is additionally served
// through a shared memory mapping: every run is a plain memcpy against the
// mapping's record view, with no syscall at all on the hot path — the
// kernel's page cache holds the same pages a pread/pwrite implementation
// would populate, and the file's bytes are identical. Where the mapping is
// unavailable, every run moves as one ReadAt/WriteAt over the caller's
// record slab on little-endian hosts (no per-record encode/decode), and
// block by block through a per-disk scratch conversion buffer on the
// portable fallback. All paths produce byte-identical files (the wire
// format is pinned by the slab-view tests).
type fileBackend struct {
	diskArray
	dirs  []string
	disks []*diskFile
}

// diskFile is one disk's file and, when mapped, its record view.
type diskFile struct {
	f      *os.File
	buf    []byte   // scratch conversion buffer, portable path only
	raw    []byte   // shared mapping of the whole file, nil without mmap
	mapped []Record // record view of raw
}

// fileDiskMmap gates the mapped fast path; tests clear it to pin the
// pread/pwrite implementation against the mapped one.
var fileDiskMmap = true

// FileBackend returns the single-directory file storage backend: one file
// per disk inside dir, named disk0000.dat, disk0001.dat, ....
func FileBackend(dir string) Backend { return &fileBackend{dirs: []string{dir}} }

// ShardedFileBackend returns a multi-volume file storage backend: disk i's
// file lives in dirs[i mod len(dirs)], so the D simulated disks spread
// round-robin across the given directories — mount each on a separate
// physical volume and the model's "D independent disks" become D
// independently seeking spindles. File names stay globally unique
// (disk%04d.dat with the global disk number), so distinct dirs may share a
// filesystem.
func ShardedFileBackend(dirs ...string) Backend { return &fileBackend{dirs: dirs} }

// Open implements Backend, opening (or creating) every disk's file. A file
// that already has exactly the right size keeps its contents — this is
// what lets OpenDataset reattach to records a previous process left
// behind — while a new or wrong-sized file is resized (new bytes are
// zero). Callers that need a known starting state overwrite the records
// themselves, as the canonical loaders do.
func (b *fileBackend) Open(numDisks, numBlocks, blockSize int) error {
	if len(b.dirs) == 0 {
		return fmt.Errorf("pdm: file backend needs at least one directory")
	}
	if err := b.open(numDisks, numBlocks, blockSize); err != nil {
		return err
	}
	b.disks = make([]*diskFile, 0, numDisks)
	for i := 0; i < numDisks; i++ {
		path := filepath.Join(b.dirs[i%len(b.dirs)], fmt.Sprintf("disk%04d.dat", i))
		d, err := openDiskFile(path, int64(numBlocks)*int64(blockSize)*RecordBytes, blockSize)
		if err != nil {
			b.Close()
			return fmt.Errorf("pdm: disk %d: %w", i, err)
		}
		b.disks = append(b.disks, d)
	}
	return nil
}

// openDiskFile opens (or creates) the file at path, sizes it to size
// bytes, and maps it when the host allows.
func openDiskFile(path string, size int64, blockSize int) (*diskFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pdm: create file disk: %w", err)
	}
	if st, err := f.Stat(); err != nil {
		f.Close()
		return nil, fmt.Errorf("pdm: stat file disk: %w", err)
	} else if st.Size() != size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("pdm: size file disk: %w", err)
		}
	}
	d := &diskFile{f: f}
	if !RecordSlabViews {
		d.buf = make([]byte, blockSize*RecordBytes)
	}
	if fileDiskMmap && canMmapDisks && RecordSlabViews && size > 0 {
		if raw, err := mmapFile(f, size); err == nil {
			// mmap returns page-aligned memory, so the record view always
			// aliases; the check guards the invariant rather than a real
			// fallback (an aliasing view is required — a converted copy
			// would silently detach from the file).
			if recs := BytesToRecords(raw); len(raw) > 0 && &raw[0] == &RecordsToBytes(recs)[0] {
				d.raw, d.mapped = raw, recs
			} else {
				munmapFile(raw)
			}
		}
		// On mmap failure the pread/pwrite path serves every run.
	}
	return d, nil
}

// ReadBlockRanges implements Backend: on slab-view hosts the whole run of
// consecutive blocks arrives in one ReadAt (or one copy out of the
// mapping) — this is the syscall batching the grouped parallel-I/O path
// exists for. The portable path converts block by block.
func (b *fileBackend) ReadBlockRanges(xfers []RangeXfer) error {
	return b.each(xfers, func(x RangeXfer) error {
		d, bs := b.disks[x.Disk], b.blockSize
		if d.mapped != nil {
			copy(x.Data, d.mapped[x.Block*bs:])
			return nil
		}
		off := int64(x.Block) * int64(bs) * RecordBytes
		if RecordSlabViews {
			if _, err := d.f.ReadAt(RecordsToBytes(x.Data), off); err != nil {
				return fmt.Errorf("pdm: read blocks [%d,%d): %w", x.Block, x.Block+len(x.Data)/bs, err)
			}
			return nil
		}
		for i := 0; i*bs < len(x.Data); i++ {
			if _, err := d.f.ReadAt(d.buf, off+int64(len(d.buf)*i)); err != nil {
				return fmt.Errorf("pdm: read block %d: %w", x.Block+i, err)
			}
			DecodeRecords(x.Data[i*bs:(i+1)*bs], d.buf)
		}
		return nil
	})
}

// WriteBlockRanges implements Backend (see ReadBlockRanges); on slab-view
// hosts the record slab is handed to WriteAt as-is.
func (b *fileBackend) WriteBlockRanges(xfers []RangeXfer) error {
	return b.each(xfers, func(x RangeXfer) error {
		d, bs := b.disks[x.Disk], b.blockSize
		if d.mapped != nil {
			copy(d.mapped[x.Block*bs:x.Block*bs+len(x.Data)], x.Data)
			return nil
		}
		off := int64(x.Block) * int64(bs) * RecordBytes
		if RecordSlabViews {
			if _, err := d.f.WriteAt(RecordsToBytes(x.Data), off); err != nil {
				return fmt.Errorf("pdm: write blocks [%d,%d): %w", x.Block, x.Block+len(x.Data)/bs, err)
			}
			return nil
		}
		for i := 0; i*bs < len(x.Data); i++ {
			EncodeRecords(d.buf, x.Data[i*bs:(i+1)*bs])
			if _, err := d.f.WriteAt(d.buf, off+int64(len(d.buf)*i)); err != nil {
				return fmt.Errorf("pdm: write block %d: %w", x.Block+i, err)
			}
		}
		return nil
	})
}

// BlockView implements BlockViewer on mapped disks: bulk readers
// (System.DumpTo, RecordAt) borrow the mapping's records directly. The
// view aliases the live mapping — read it only under a lock excluding
// writes to the block, and never after Close (which unmaps). Unmapped
// disks report no view.
func (b *fileBackend) BlockView(disk, block int) ([]Record, bool) {
	if disk < 0 || disk >= len(b.disks) || block < 0 || block >= b.numBlocks {
		return nil, false
	}
	d := b.disks[disk]
	if d.mapped == nil {
		return nil, false
	}
	return d.mapped[block*b.blockSize : (block+1)*b.blockSize], true
}

// Sync implements Backend, flushing every disk's file to stable storage.
// Stores through the mapping dirty the same page cache pages pwrite
// would, and fsync flushes them alike, so no separate msync is needed.
func (b *fileBackend) Sync() error {
	var firstErr error
	for _, d := range b.disks {
		if err := d.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close implements Backend, unmapping (when mapped) and closing every
// disk's file.
func (b *fileBackend) Close() error {
	var firstErr error
	for _, d := range b.disks {
		if d.raw != nil {
			if err := munmapFile(d.raw); err != nil && firstErr == nil {
				firstErr = err
			}
			d.raw, d.mapped = nil, nil
		}
		if err := d.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
