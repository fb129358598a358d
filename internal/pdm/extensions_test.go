package pdm

import (
	"errors"
	"testing"
	"time"
)

// TestFlakyBackendInjection: a fault armed partway through a record load
// surfaces from LoadRecords, wrapped in ErrInjectedFault.
func TestFlakyBackendInjection(t *testing.T) {
	cfg := testConfig()
	// LoadRecords writes BlocksPerDisk blocks to every disk, far beyond
	// the third operation where faults begin.
	fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 3})
	sys, err := NewSystem(cfg, fb)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.LoadRecords(PortionA, sequentialRecords(cfg.N)); err == nil {
		t.Fatal("load through flaky backend succeeded")
	} else if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("fault not wrapped: %v", err)
	}
	if fb.Ops() != 3 {
		t.Errorf("ops = %d, want the load to stop at the first fault (3)", fb.Ops())
	}
}

func TestFlakyBackendThreshold(t *testing.T) {
	d := NewFaultyBackend(MemBackend(), 3)
	if err := d.Open(2, 8, 4); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]Record, 4)
	for i := 0; i < 3; i++ {
		if err := d.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: [][]Record{buf}}}); err != nil {
			t.Fatalf("op %d failed before threshold: %v", i, err)
		}
	}
	if err := d.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: [][]Record{buf}}}); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("op 3 did not fault: %v", err)
	}
	if d.Ops() != 4 {
		t.Errorf("ops = %d, want 4", d.Ops())
	}
	// Read-only faults leave writes working.
	d2 := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 1, Mode: FaultReadOnly})
	if err := d2.Open(2, 8, 4); err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: [][]Record{buf}}}); err != nil {
		t.Errorf("write failed with read-only faults: %v", err)
	}
	if err := d2.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Blocks: [][]Record{buf}}}); !errors.Is(err, ErrInjectedFault) {
		t.Error("read did not fault")
	}
}

// TestFaultPropagatesThroughParallelIO: an injected fault surfaces from
// ParallelRead and the operation is not counted; a later operation
// succeeds once the fault window has passed.
func TestFaultPropagatesThroughParallelIO(t *testing.T) {
	cfg := testConfig()
	sys, err := NewSystem(cfg, NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 1, RecoverAfter: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	err = sys.ParallelRead(PortionA, []BlockIO{{Disk: 2, Block: 0, Frame: 0}})
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("fault not propagated: %v", err)
	}
	if sys.Stats().ParallelReads != 0 {
		t.Error("failed parallel read was counted")
	}
	if err := sys.ParallelRead(PortionA, []BlockIO{{Disk: 0, Block: 0, Frame: 0}}); err != nil {
		t.Fatalf("operation after the fault window failed: %v", err)
	}
	if sys.Stats().ParallelReads != 1 {
		t.Errorf("parallel reads = %d, want 1", sys.Stats().ParallelReads)
	}
}

// TestConcurrentDispatchEquivalence: concurrent per-disk dispatch produces
// bit-identical results and identical statistics.
func TestConcurrentDispatchEquivalence(t *testing.T) {
	cfg := testConfig()
	seq, _ := NewMemSystem(cfg)
	defer seq.Close()
	con, _ := NewMemSystem(cfg)
	defer con.Close()
	con.SetConcurrent(true)

	recs := sequentialRecords(cfg.N)
	_ = seq.LoadRecords(PortionA, recs)
	_ = con.LoadRecords(PortionA, recs)

	for stripe := 0; stripe < cfg.Stripes(); stripe++ {
		if err := seq.ReadStripe(PortionA, stripe, 0); err != nil {
			t.Fatal(err)
		}
		if err := con.ReadStripe(PortionA, stripe, 0); err != nil {
			t.Fatal(err)
		}
		if err := seq.WriteStripe(PortionB, cfg.Stripes()-1-stripe, 0); err != nil {
			t.Fatal(err)
		}
		if err := con.WriteStripe(PortionB, cfg.Stripes()-1-stripe, 0); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := seq.DumpRecords(PortionB)
	b, _ := con.DumpRecords(PortionB)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at record %d", i)
		}
	}
	if seq.Stats().ParallelIOs() != con.Stats().ParallelIOs() {
		t.Error("I/O counts differ between dispatch modes")
	}
}

// TestConcurrentFaultPropagation: faults still surface under concurrent
// dispatch — an injected fault on the second transfer of a parallel read
// (disk 1), and an error raised inside the backend's own concurrent
// dispatch.
func TestConcurrentFaultPropagation(t *testing.T) {
	cfg := testConfig()
	sys, err := NewSystem(cfg, NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.SetConcurrent(true)
	ios := make([]BlockIO, cfg.D)
	for d := range ios {
		ios[d] = BlockIO{Disk: d, Block: 0, Frame: d}
	}
	if err := sys.ParallelRead(PortionA, ios); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("concurrent fault not propagated: %v", err)
	}

	be := MemBackend()
	if err := be.Open(cfg.D, 4, cfg.B); err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	be.(concurrentSetter).SetConcurrent(true)
	xfers := make([]RangeXfer, cfg.D)
	for d := range xfers {
		xfers[d] = RangeXfer{Disk: d, Block: 0, Blocks: [][]Record{make([]Record, cfg.B)}}
	}
	xfers[1].Block = 4 // past the end of the disk
	if err := be.ReadBlockRanges(xfers); err == nil {
		t.Fatal("error inside concurrent dispatch not propagated")
	}
}

func TestCostModel(t *testing.T) {
	cm := DefaultCostModel(16)
	if cm.PerOp() <= cm.Seek {
		t.Error("per-op cost does not include transfer")
	}
	var st Stats
	st.ParallelReads = 100
	st.ParallelWrites = 50
	if got, want := cm.Estimate(st), 150*cm.PerOp(); got != want {
		t.Errorf("estimate %v, want %v", got, want)
	}
	if cm.String() == "" {
		t.Error("empty cost model description")
	}
	// A pass over 2^20 records at B=16, D=8 is 2*8192 operations: the
	// modeled time must be macroscopic (minutes, not microseconds).
	var pass Stats
	pass.ParallelReads, pass.ParallelWrites = 8192, 8192
	if cm.Estimate(pass) < time.Second {
		t.Errorf("implausible pass estimate %v", cm.Estimate(pass))
	}
}
