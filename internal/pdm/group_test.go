package pdm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The grouped parallel-I/O path promises to be indistinguishable from the
// one-at-a-time loop in everything the model can observe: records moved,
// Stats, and the trace. These tests run both paths side by side over the RAM
// and file backends and require exact agreement.

// newGroupSystem builds a system over the named backend, loads sequential
// records into PortionA, and attaches a trace.
func newGroupSystem(t *testing.T, backend string, cfg Config) (*System, *Trace) {
	t.Helper()
	be := MemBackend()
	if backend == "file" {
		be = FileBackend(t.TempDir())
	}
	sys, err := NewSystem(cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.LoadRecords(PortionA, sequentialRecords(cfg.N)); err != nil {
		t.Fatal(err)
	}
	tr := new(Trace).Attach(sys)
	return sys, tr
}

// groupShapes returns the operation groups the tests exercise, for the
// testConfig geometry (D=4, 32 blocks per disk, 16 frames).
func groupShapes(cfg Config) map[string][][]BlockIO {
	// striped: wave w reads stripe w, so each disk sees consecutive physical
	// blocks 0..3 — one maximal run per disk, the shape the coalescer is for.
	striped := make([][]BlockIO, cfg.FramesPerDisk())
	for w := range striped {
		for d := 0; d < cfg.D; d++ {
			striped[w] = append(striped[w], BlockIO{Disk: d, Block: w, Frame: w*cfg.D + d})
		}
	}
	// scattered: irregular blocks mixing multi-block runs (out of wave
	// order), singletons, and gaps, different on every disk.
	blocks := [][]int{
		{5, 0, 8, 3},
		{6, 10, 2, 4},
		{7, 11, 25, 30},
		{20, 31, 14, 12},
	}
	scattered := make([][]BlockIO, len(blocks))
	for w, row := range blocks {
		for d, blk := range row {
			scattered[w] = append(scattered[w], BlockIO{Disk: d, Block: blk, Frame: w*cfg.D + d})
		}
	}
	return map[string][][]BlockIO{"striped": striped, "scattered": scattered}
}

func TestParallelReadGroupMatchesLoop(t *testing.T) {
	cfg := testConfig()
	for _, backend := range []string{"mem", "file"} {
		for shape, group := range groupShapes(cfg) {
			t.Run(backend+"/"+shape, func(t *testing.T) {
				sysG, trG := newGroupSystem(t, backend, cfg)
				sysL, trL := newGroupSystem(t, backend, cfg)
				bufG, bufL := sysG.AcquireBuffer(), sysL.AcquireBuffer()
				if err := sysG.ParallelReadGroup(PortionA, group, bufG); err != nil {
					t.Fatal(err)
				}
				for _, ios := range group {
					if err := sysL.ParallelReadInto(PortionA, ios, bufL); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(bufG.Records(), bufL.Records()) {
					t.Error("grouped read delivered different records than the loop")
				}
				if g, l := sysG.Stats(), sysL.Stats(); !reflect.DeepEqual(g, l) {
					t.Errorf("stats diverge: grouped %+v, loop %+v", g, l)
				}
				if !reflect.DeepEqual(trG.Entries, trL.Entries) {
					t.Errorf("traces diverge:\ngrouped:\n%s\nloop:\n%s", trG, trL)
				}
			})
		}
	}
}

func TestParallelWriteGroupMatchesLoop(t *testing.T) {
	cfg := testConfig()
	for _, backend := range []string{"mem", "file"} {
		for shape, group := range groupShapes(cfg) {
			t.Run(backend+"/"+shape, func(t *testing.T) {
				sysG, trG := newGroupSystem(t, backend, cfg)
				sysL, trL := newGroupSystem(t, backend, cfg)
				bufG, bufL := sysG.AcquireBuffer(), sysL.AcquireBuffer()
				for i := range bufG.Records() {
					bufG.Records()[i] = MakeRecord(uint64(100000 + i))
					bufL.Records()[i] = MakeRecord(uint64(100000 + i))
				}
				if err := sysG.ParallelWriteGroup(PortionA, group, bufG); err != nil {
					t.Fatal(err)
				}
				for _, ios := range group {
					if err := sysL.ParallelWriteFrom(PortionA, ios, bufL); err != nil {
						t.Fatal(err)
					}
				}
				recsG, err := sysG.DumpRecords(PortionA)
				if err != nil {
					t.Fatal(err)
				}
				recsL, err := sysL.DumpRecords(PortionA)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(recsG, recsL) {
					t.Error("grouped write left different records than the loop")
				}
				if g, l := sysG.Stats(), sysL.Stats(); !reflect.DeepEqual(g, l) {
					t.Errorf("stats diverge: grouped %+v, loop %+v", g, l)
				}
				if !reflect.DeepEqual(trG.Entries, trL.Entries) {
					t.Errorf("traces diverge:\ngrouped:\n%s\nloop:\n%s", trG, trL)
				}
			})
		}
	}
}

// TestParallelReadGroupDuplicateFrameFallsBack: a frame reused across the
// group's waves makes the outcome order-dependent, so the group must behave
// exactly like the loop — the later wave wins the frame — while still
// counting each wave.
func TestParallelReadGroupDuplicateFrameFallsBack(t *testing.T) {
	cfg := testConfig()
	group := [][]BlockIO{
		{{Disk: 0, Block: 1, Frame: 0}},
		{{Disk: 0, Block: 2, Frame: 0}},
	}
	sys, _ := newGroupSystem(t, "mem", cfg)
	buf := sys.AcquireBuffer()
	if err := sys.ParallelReadGroup(PortionA, group, buf); err != nil {
		t.Fatal(err)
	}
	// The reference: frame 0 holds block 2 of disk 0, read on its own.
	ref, _ := newGroupSystem(t, "mem", cfg)
	want := ref.AcquireBuffer()
	if err := ref.ParallelReadInto(PortionA, []BlockIO{{Disk: 0, Block: 2, Frame: 0}}, want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(buf.Frame(0), want.Frame(0)) {
		t.Error("frame 0 does not hold the last wave's block")
	}
	if st := sys.Stats(); st.ParallelReads != 2 || st.BlocksRead != 2 {
		t.Errorf("fallback miscounted: %+v", st)
	}
}

// TestParallelWriteGroupDuplicateBlockFallsBack: two waves writing the same
// (disk, block) must resolve in wave order, the last write winning.
func TestParallelWriteGroupDuplicateBlockFallsBack(t *testing.T) {
	cfg := testConfig()
	group := [][]BlockIO{
		{{Disk: 1, Block: 3, Frame: 0}},
		{{Disk: 1, Block: 3, Frame: 1}},
	}
	sys, _ := newGroupSystem(t, "mem", cfg)
	buf := sys.AcquireBuffer()
	for i := range buf.Records() {
		buf.Records()[i] = MakeRecord(uint64(200000 + i))
	}
	if err := sys.ParallelWriteGroup(PortionA, group, buf); err != nil {
		t.Fatal(err)
	}
	got := sys.AcquireBuffer()
	if err := sys.ParallelReadInto(PortionA, []BlockIO{{Disk: 1, Block: 3, Frame: 0}}, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Frame(0), buf.Frame(1)) {
		t.Error("block does not hold the last wave's frame")
	}
	if st := sys.Stats(); st.ParallelWrites != 2 || st.BlocksWritten != 2 {
		t.Errorf("fallback miscounted: %+v", st)
	}
}

// TestBlockRangeBounds: both built-in backends reject runs that are
// empty, misaligned, out of bounds, or on a nonexistent disk, on reads and
// writes alike.
func TestBlockRangeBounds(t *testing.T) {
	const nb, bs = 4, 8
	backends := map[string]Backend{"mem": MemBackend(), "file": FileBackend(t.TempDir())}
	cases := []struct {
		name   string
		disk   int
		block0 int
		recs   int
	}{
		{"negative block", 0, -1, bs},
		{"empty range", 0, 0, 0},
		{"misaligned range", 0, 0, bs + 1},
		{"past the end", 0, 3, 2 * bs},
		{"nonexistent disk", 1, 0, bs},
	}
	for name, be := range backends {
		if err := be.Open(1, nb, bs); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { be.Close() })
		for _, c := range cases {
			x := []RangeXfer{{Disk: c.disk, Block: c.block0, Data: make([]Record, c.recs)}}
			if err := be.ReadBlockRanges(x); err == nil {
				t.Errorf("%s: ReadBlockRanges accepted %s", name, c.name)
			}
			if err := be.WriteBlockRanges(x); err == nil {
				t.Errorf("%s: WriteBlockRanges accepted %s", name, c.name)
			}
		}
	}
}

// TestFileDiskMmapMatchesPread pins the mapped fast path against the
// pread/pwrite reference: the same writes must leave byte-identical files,
// and each path must read back what the other wrote.
func TestFileDiskMmapMatchesPread(t *testing.T) {
	if !canMmapDisks || !RecordSlabViews {
		t.Skip("no mapped fast path on this host")
	}
	const nb, bs = 6, 8
	payload := func(blk int) []Record {
		recs := make([]Record, bs)
		for i := range recs {
			recs[i] = MakeRecord(uint64(blk*1000 + i))
		}
		return recs
	}
	open := func(t *testing.T, dir string) *fileBackend {
		t.Helper()
		be := FileBackend(dir).(*fileBackend)
		if err := be.Open(1, nb, bs); err != nil {
			t.Fatal(err)
		}
		return be
	}
	writeAll := func(t *testing.T, dir string) {
		t.Helper()
		be := open(t, dir)
		// Mix single-block and multi-block runs.
		for blk := 0; blk < 3; blk++ {
			if err := be.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: blk, Data: payload(blk)}}); err != nil {
				t.Fatal(err)
			}
		}
		run := append(append(append([]Record{}, payload(3)...), payload(4)...), payload(5)...)
		if err := be.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: 3, Data: run}}); err != nil {
			t.Fatal(err)
		}
		if err := be.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := be.Close(); err != nil {
			t.Fatal(err)
		}
	}
	readAll := func(t *testing.T, dir string, wantMapped bool) {
		t.Helper()
		be := open(t, dir)
		defer be.Close()
		if mapped := be.disks[0].raw != nil; mapped != wantMapped {
			t.Fatalf("mapped = %v, want %v", mapped, wantMapped)
		}
		if _, ok := be.BlockView(0, 0); ok != wantMapped {
			t.Errorf("BlockView availability = %v, want %v", ok, wantMapped)
		}
		for blk := 0; blk < nb; blk++ {
			got := make([]Record, bs)
			if err := be.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: blk, Data: got}}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, payload(blk)) {
				t.Errorf("block %d read back wrong records", blk)
			}
			if view, ok := be.BlockView(0, blk); ok && !reflect.DeepEqual(view, payload(blk)) {
				t.Errorf("block %d view holds wrong records", blk)
			}
		}
		run := make([]Record, 3*bs)
		if err := be.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 2, Data: run}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if !reflect.DeepEqual(run[i*bs:(i+1)*bs], payload(2+i)) {
				t.Errorf("range read block %d wrong", 2+i)
			}
		}
	}

	defer func(old bool) { fileDiskMmap = old }(fileDiskMmap)
	mapped, pread := t.TempDir(), t.TempDir()

	fileDiskMmap = true
	writeAll(t, mapped)
	fileDiskMmap = false
	writeAll(t, pread)

	a, err := os.ReadFile(filepath.Join(mapped, "disk0000.dat"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(pread, "disk0000.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mapped and pread paths wrote different file bytes")
	}

	// Cross-read: each path reads what the other wrote.
	fileDiskMmap = true
	readAll(t, pread, true)
	fileDiskMmap = false
	readAll(t, mapped, false)
}
