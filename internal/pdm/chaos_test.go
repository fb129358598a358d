package pdm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// chaosGeom is the fixed geometry every chaos wrapper unit test runs at.
const (
	chaosDisks  = 2
	chaosBlocks = 8
	chaosBS     = 4
)

func chaosRec(disk, block, i int) Record {
	return Record{Key: uint64(disk)<<16 | uint64(block)<<8 | uint64(i), Tag: uint64(disk*chaosBlocks + block)}
}

func chaosOpen(t *testing.T, be Backend) {
	t.Helper()
	if err := be.Open(chaosDisks, chaosBlocks, chaosBS); err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { be.Close() })
}

// chaosFill writes canonical content into every block, tolerating injected
// faults (each block is retried on its own so later blocks still land).
func chaosFill(t *testing.T, be Backend) {
	t.Helper()
	for disk := 0; disk < chaosDisks; disk++ {
		for block := 0; block < chaosBlocks; block++ {
			data := make([]Record, chaosBS)
			for i := range data {
				data[i] = chaosRec(disk, block, i)
			}
			if err := be.WriteBlockRanges([]RangeXfer{{Disk: disk, Block: block, Blocks: vec(data, chaosBS)}}); err != nil {
				t.Fatalf("fill disk %d block %d: %v", disk, block, err)
			}
		}
	}
}

// chaosScript drives a fixed, sequential operation sequence — single-block
// writes, single-block reads, then one 4-block run read per disk — and
// returns the error strings it hit, in order. The sequence is the workload
// behind the golden fault schedule.
func chaosScript(be Backend) []string {
	var errs []string
	note := func(err error) {
		if err != nil {
			errs = append(errs, err.Error())
		}
	}
	buf := make([]Record, chaosBS)
	for block := 0; block < chaosBlocks; block++ {
		for disk := 0; disk < chaosDisks; disk++ {
			for i := range buf {
				buf[i] = chaosRec(disk, block, i)
			}
			note(be.WriteBlockRanges([]RangeXfer{{Disk: disk, Block: block, Blocks: vec(buf, chaosBS)}}))
		}
	}
	for block := 0; block < chaosBlocks; block++ {
		for disk := 0; disk < chaosDisks; disk++ {
			note(be.ReadBlockRanges([]RangeXfer{{Disk: disk, Block: block, Blocks: vec(buf, chaosBS)}}))
		}
	}
	span := make([]Record, 4*chaosBS)
	for disk := 0; disk < chaosDisks; disk++ {
		note(be.ReadBlockRanges([]RangeXfer{{Disk: disk, Block: 2, Blocks: vec(span, chaosBS)}}))
	}
	return errs
}

func TestChaosFlakyBackendModes(t *testing.T) {
	t.Run("FailAfterN", func(t *testing.T) {
		fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 3})
		chaosOpen(t, fb)
		buf := make([]Record, chaosBS)
		for op := 0; op < 4; op++ {
			err := fb.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: op % chaosBlocks, Blocks: vec(buf, chaosBS)}})
			if op < 2 && err != nil {
				t.Fatalf("op %d before the window: %v", op, err)
			}
			if op >= 2 {
				if !errors.Is(err, ErrInjectedFault) {
					t.Fatalf("op %d: want wrapped ErrInjectedFault, got %v", op, err)
				}
			}
		}
		if fb.Ops() != 4 {
			t.Fatalf("Ops() = %d, want 4", fb.Ops())
		}
	})

	t.Run("RecoverWindow", func(t *testing.T) {
		// Ops 4 and 5 (0-based 3,4) fail; everything after recovers.
		fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 4, RecoverAfter: 2})
		chaosOpen(t, fb)
		buf := make([]Record, chaosBS)
		for op := 0; op < 8; op++ {
			err := fb.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(buf, chaosBS)}})
			inWindow := op == 3 || op == 4
			if inWindow && !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("op %d: want injected fault, got %v", op, err)
			}
			if !inWindow && err != nil {
				t.Fatalf("op %d outside the window: %v", op, err)
			}
		}
	})

	t.Run("ReadOnlyWriteOnly", func(t *testing.T) {
		for _, tc := range []struct {
			mode       FaultMode
			readFails  bool
			writeFails bool
		}{
			{FaultReadOnly, true, false},
			{FaultWriteOnly, false, true},
			{FaultReadWrite, true, true},
		} {
			fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 1, Mode: tc.mode})
			chaosOpen(t, fb)
			buf := make([]Record, chaosBS)
			werr := fb.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(buf, chaosBS)}})
			rerr := fb.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(buf, chaosBS)}})
			if got := errors.Is(rerr, ErrInjectedFault); got != tc.readFails {
				t.Errorf("mode %v: read fault = %v, want %v", tc.mode, got, tc.readFails)
			}
			if got := errors.Is(werr, ErrInjectedFault); got != tc.writeFails {
				t.Errorf("mode %v: write fault = %v, want %v", tc.mode, got, tc.writeFails)
			}
		}
	})

	t.Run("DisarmTransparent", func(t *testing.T) {
		log := &ChaosLog{}
		fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 1, Log: log})
		chaosOpen(t, fb)
		fb.Disarm()
		chaosFill(t, fb) // every op would fault if armed
		if log.Len() != 0 || fb.Ops() != 0 {
			t.Fatalf("disarmed ops were counted: log %d, ops %d", log.Len(), fb.Ops())
		}
		fb.Arm()
		buf := make([]Record, chaosBS)
		if err := fb.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(buf, chaosBS)}}); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("armed op: want injected fault, got %v", err)
		}
	})

	t.Run("BatchPrefixLands", func(t *testing.T) {
		// A fault on the second transfer of a batch must not block the
		// first: earlier transfers land, later ones are not attempted.
		fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 2})
		chaosOpen(t, fb)
		data0 := make([]Record, chaosBS)
		data1 := make([]Record, chaosBS)
		for i := range data0 {
			data0[i] = chaosRec(0, 0, i)
			data1[i] = chaosRec(1, 0, i)
		}
		err := fb.WriteBlockRanges([]RangeXfer{
			{Disk: 0, Block: 0, Blocks: vec(data0, chaosBS)},
			{Disk: 1, Block: 0, Blocks: vec(data1, chaosBS)},
		})
		if !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("want injected fault, got %v", err)
		}
		fb.Disarm()
		got := make([]Record, chaosBS)
		if err := fb.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(got, chaosBS)}}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, data0) {
			t.Fatal("transfer before the faulted one did not land")
		}
	})
}

func TestChaosTornRange(t *testing.T) {
	t.Run("WritePrefixOnly", func(t *testing.T) {
		log := &ChaosLog{}
		tb := NewTornBackend(MemBackend(), TornOptions{Seed: 7, TearNth: 1, Log: log})
		chaosOpen(t, tb)
		tb.Disarm()
		chaosFill(t, tb)
		tb.Arm()
		// Overwrite blocks 1..4 of disk 0 with new content through one range.
		span := make([]Record, 4*chaosBS)
		for i := range span {
			span[i] = Record{Key: 0xbeef00 + uint64(i), Tag: 1}
		}
		err := tb.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: 1, Blocks: vec(span, chaosBS)}})
		if !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("want torn-range fault, got %v", err)
		}
		if faults := log.Faults(); len(faults) != 1 {
			t.Fatalf("want 1 logged fault, got %d", len(faults))
		}
		// The first `cut` blocks hold the new content, the rest the old.
		cut := tornCut(t, err)
		tb.Disarm()
		got := make([]Record, chaosBS)
		for b := 0; b < 4; b++ {
			if err := tb.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 1 + b, Blocks: vec(got, chaosBS)}}); err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				var want Record
				if b < cut {
					want = span[b*chaosBS+i]
				} else {
					want = chaosRec(0, 1+b, i)
				}
				if g != want {
					t.Fatalf("block %d record %d (cut %d): got %+v, want %+v", 1+b, i, cut, g, want)
				}
			}
		}
	})

	t.Run("ReadPrefixOnly", func(t *testing.T) {
		tb := NewTornBackend(MemBackend(), TornOptions{Seed: 7, TearNth: 1})
		chaosOpen(t, tb)
		tb.Disarm()
		chaosFill(t, tb)
		tb.Arm()
		span := make([]Record, 4*chaosBS)
		sentinel := Record{Key: ^uint64(0), Tag: ^uint64(0)}
		for i := range span {
			span[i] = sentinel
		}
		err := tb.ReadBlockRanges([]RangeXfer{{Disk: 1, Block: 2, Blocks: vec(span, chaosBS)}})
		if !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("want torn-range fault, got %v", err)
		}
		cut := tornCut(t, err)
		for b := 0; b < 4; b++ {
			for i := 0; i < chaosBS; i++ {
				got := span[b*chaosBS+i]
				if b < cut {
					if want := chaosRec(1, 2+b, i); got != want {
						t.Fatalf("prefix block %d record %d: got %+v, want %+v", 2+b, i, got, want)
					}
				} else if got != sentinel {
					t.Fatalf("suffix block %d record %d was touched: %+v", 2+b, i, got)
				}
			}
		}
	})

	t.Run("SingleBlockNeverTorn", func(t *testing.T) {
		tb := NewTornBackend(MemBackend(), TornOptions{Seed: 7, Rate: 1, TearNth: 1})
		chaosOpen(t, tb)
		buf := make([]Record, chaosBS)
		for i := 0; i < 8; i++ {
			if err := tb.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: i, Blocks: vec(buf, chaosBS)}}); err != nil {
				t.Fatalf("single-block range %d torn: %v", i, err)
			}
		}
		if err := tb.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(buf, chaosBS)}, {Disk: 1, Block: 0, Blocks: vec(buf, chaosBS)}}); err != nil {
			t.Fatalf("one-block runs of a parallel write torn: %v", err)
		}
	})
}

// tornCut parses "only K of N blocks transferred" out of a torn-range error.
func tornCut(t *testing.T, err error) int {
	t.Helper()
	var cut, total int
	msg := err.Error()
	idx := strings.Index(msg, "only ")
	if idx < 0 {
		t.Fatalf("no cut in error %q", msg)
	}
	if _, serr := fmt.Sscanf(msg[idx:], "only %d of %d blocks transferred", &cut, &total); serr != nil {
		t.Fatalf("unparseable torn error %q: %v", msg, serr)
	}
	if cut < 1 || cut >= total {
		t.Fatalf("cut %d out of range for %d blocks", cut, total)
	}
	return cut
}

// TestChaosSeedReproducibility pins the determinism contract: the same seed
// over the same sequential workload yields the identical fault schedule, op
// counts, and error strings; a different seed yields a different schedule.
// One seed's schedule is checked in as a golden file (refresh with
// CHAOS_GOLDEN_UPDATE=1 go test ./internal/pdm -run ChaosSeed).
func TestChaosSeedReproducibility(t *testing.T) {
	run := func(seed int64) (string, []string, int) {
		log := &ChaosLog{}
		fb := NewFlakyBackend(MemBackend(), FlakyOptions{Seed: seed, Rate: 0.2, Log: log})
		chaosOpen(t, fb)
		errs := chaosScript(fb)
		return log.String(), errs, fb.Ops()
	}

	s1a, e1a, n1a := run(1)
	s1b, e1b, n1b := run(1)
	if s1a != s1b {
		t.Fatalf("same seed, different schedules:\n--- run A\n%s\n--- run B\n%s", s1a, s1b)
	}
	if !reflect.DeepEqual(e1a, e1b) {
		t.Fatalf("same seed, different error strings: %q vs %q", e1a, e1b)
	}
	if n1a != n1b {
		t.Fatalf("same seed, different op counts: %d vs %d", n1a, n1b)
	}
	if len(e1a) == 0 {
		t.Fatal("seed 1 injected no faults; the reproducibility test needs a faulting schedule")
	}

	s2, _, _ := run(2)
	if s1a == s2 {
		t.Fatal("different seeds produced the identical schedule")
	}

	golden := filepath.Join("testdata", "chaos_schedule_seed1.golden")
	if os.Getenv("CHAOS_GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(golden, []byte(s1a+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden schedule (run with CHAOS_GOLDEN_UPDATE=1 to create): %v", err)
	}
	if got := s1a + "\n"; got != string(want) {
		t.Fatalf("schedule for seed 1 drifted from the golden file:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestChaosFaultyBackendComposes pins that Backend-level fault injection
// wraps a sharded file backend without hiding its multi-block runs.
func TestChaosFaultyBackendComposes(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	fb := NewFaultyBackend(ShardedFileBackend(dirs...), 1<<30)
	chaosOpen(t, fb)
	chaosFill(t, fb)

	// The wrapper forwards multi-block runs to the sharded backend as-is —
	// grouped I/O stays grouped under injection.
	span := make([]Record, 3*chaosBS)
	if err := fb.ReadBlockRanges([]RangeXfer{{Disk: 1, Block: 2, Blocks: vec(span, chaosBS)}}); err != nil {
		t.Fatalf("range read through faulty wrapper: %v", err)
	}
	for b := 0; b < 3; b++ {
		for i := 0; i < chaosBS; i++ {
			if want := chaosRec(1, 2+b, i); span[b*chaosBS+i] != want {
				t.Fatalf("block %d record %d: got %+v, want %+v", 2+b, i, span[b*chaosBS+i], want)
			}
		}
	}

	// failAfter 0 faults the very first operation.
	fb2 := NewFaultyBackend(MemBackend(), 0)
	chaosOpen(t, fb2)
	if err := fb2.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(span[:chaosBS], chaosBS)}}); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("failAfter=0: want immediate fault, got %v", err)
	}
}

// TestChaosLatencyBackend pins that injected latency changes wall-clock
// only: records round-trip untouched, the schedule is logged, and a skewed
// disk is measurably slower than its peers.
func TestChaosLatencyBackend(t *testing.T) {
	log := &ChaosLog{}
	lb := NewLatencyBackend(MemBackend(), LatencyOptions{
		Seed:        3,
		PerBlock:    time.Millisecond, // large enough to dominate timer slack
		Jitter:      0.5,
		DiskFactors: []float64{10, 1},
		Log:         log,
	})
	chaosOpen(t, lb)
	lb.Disarm()
	chaosFill(t, lb)
	lb.Arm()

	// Reading a whole disk verifies content and times its skewed latency:
	// disk 0 (factor 10) must be slower than disk 1 over the same op count.
	got := make([]Record, chaosBS)
	timeDisk := func(disk int) time.Duration {
		start := time.Now()
		for block := 0; block < chaosBlocks; block++ {
			if err := lb.ReadBlockRanges([]RangeXfer{{Disk: disk, Block: block, Blocks: vec(got, chaosBS)}}); err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if want := chaosRec(disk, block, i); g != want {
					t.Fatalf("latency wrapper corrupted disk %d block %d record %d", disk, block, i)
				}
			}
		}
		return time.Since(start)
	}
	slow, fast := timeDisk(0), timeDisk(1)
	if slow <= fast {
		t.Fatalf("skewed disk was not slower: disk0 %v vs disk1 %v", slow, fast)
	}
	if faults := log.Faults(); len(faults) != 0 {
		t.Fatalf("latency backend injected faults: %v", faults)
	}
	if log.Len() != 2*chaosBlocks {
		t.Fatalf("latency log has %d ops, want %d", log.Len(), 2*chaosBlocks)
	}
}

// TestChaosFileMmapPaths runs a faulting workload over file-backed disks
// with the mmap fast path both on and off: injection and recovery must be
// identical regardless of how the file backend serves its blocks.
func TestChaosFileMmapPaths(t *testing.T) {
	defer func(old bool) { fileDiskMmap = old }(fileDiskMmap)
	for _, mmapOn := range []bool{true, false} {
		name := "pread"
		if mmapOn {
			name = "mmap"
		}
		t.Run(name, func(t *testing.T) {
			fileDiskMmap = mmapOn
			fb := NewFlakyBackend(FileBackend(t.TempDir()), FlakyOptions{FailAfterN: 17, RecoverAfter: 2})
			chaosOpen(t, fb)
			chaosFill(t, fb) // exactly 16 ops (2 disks x 8 blocks), all clean
			buf := make([]Record, chaosBS)
			if err := fb.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(buf, chaosBS)}}); !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("op 17: want injected fault, got %v", err)
			}
			if err := fb.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(buf, chaosBS)}}); !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("op 18: want injected fault, got %v", err)
			}
			if err := fb.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: vec(buf, chaosBS)}}); err != nil {
				t.Fatalf("op 19 after recovery: %v", err)
			}
			for i, g := range buf {
				if want := chaosRec(0, 0, i); g != want {
					t.Fatalf("record %d after recovery: got %+v, want %+v", i, g, want)
				}
			}
		})
	}
}
