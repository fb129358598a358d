package backendtest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	bmmc "repro"
	"repro/backendtest/chaos"
)

// RunChaos certifies backends produced by factory against the adversarial
// wrappers in repro/backendtest/chaos, the same way Run certifies them
// against the base contract:
//
//	func TestChaosMyBackend(t *testing.T) {
//	    backendtest.RunChaos(t, func(t *testing.T) bmmc.Backend {
//	        return mypkg.NewBackend(t.TempDir())
//	    })
//	}
//
// It pins the guarantees the chaos conformance suite relies on: injected
// faults surface wrapped in ErrInjectedFault, zero-fault wrappers are
// byte-transparent, the fault schedule is a pure function of the seed,
// torn range transfers leave a whole-block prefix and nothing else,
// transient fault windows recover, and latency injection never alters
// content. A backend that passes Run and RunChaos can be driven by the
// engine- and daemon-level chaos suites without surprises.
func RunChaos(t *testing.T, factory Factory) {
	t.Run("FaultSurfacesWrapped", func(t *testing.T) {
		// The very first operation faults, and the error matches the
		// sentinel through errors.Is at both export sites.
		be := openWrapped(t, factory, func(inner bmmc.Backend) bmmc.Backend {
			return chaos.Faulty(inner, 0)
		})
		buf := make([]bmmc.Record, blockSize)
		fill(buf, 1, 0, 0)
		err := be.WriteBlockRanges([]bmmc.RangeXfer{{Disk: 0, Block: 0, Blocks: one(buf)}})
		if !errors.Is(err, chaos.ErrInjectedFault) || !errors.Is(err, bmmc.ErrInjectedFault) {
			t.Fatalf("want an error wrapping ErrInjectedFault, got %v", err)
		}
	})

	t.Run("ZeroFaultTransparent", func(t *testing.T) {
		// The full adversary stack with all rates, counts, and delays at
		// zero must behave exactly like the bare backend.
		be := openWrapped(t, factory, func(inner bmmc.Backend) bmmc.Backend {
			return chaos.Flaky(
				chaos.TornRange(
					chaos.Latency(inner, chaos.LatencyOptions{Seed: 1}),
					chaos.TornOptions{Seed: 1}),
				chaos.FlakyOptions{Seed: 1})
		})
		writeAll(t, be, 1)
		checkAll(t, be, 1)
		writeAll(t, be, 2)
		checkAll(t, be, 2)
	})

	t.Run("RangeContractThroughWrappers", func(t *testing.T) {
		// Zero-fault wrappers forward runs unchanged: the base run
		// contract holds through each of them.
		for name, wrap := range map[string]func(bmmc.Backend) bmmc.Backend{
			"Flaky":     func(inner bmmc.Backend) bmmc.Backend { return chaos.Flaky(inner, chaos.FlakyOptions{Seed: 1}) },
			"Latency":   func(inner bmmc.Backend) bmmc.Backend { return chaos.Latency(inner, chaos.LatencyOptions{Seed: 1}) },
			"TornRange": func(inner bmmc.Backend) bmmc.Backend { return chaos.TornRange(inner, chaos.TornOptions{Seed: 1}) },
		} {
			t.Run(name, func(t *testing.T) {
				checkRanges(t, openWrapped(t, factory, wrap))
			})
		}
	})

	t.Run("DeterministicSchedule", func(t *testing.T) {
		// The same seed over the same operation sequence produces the
		// same faults on fresh backends; a different seed does not.
		run := func(seed int64) (string, []string) {
			log := &chaos.Log{}
			be := openWrapped(t, factory, func(inner bmmc.Backend) bmmc.Backend {
				return chaos.Flaky(inner, chaos.FlakyOptions{Seed: seed, Rate: 0.5, Log: log})
			})
			return chaosTranscript(be), faultStrings(log)
		}
		t1, f1 := run(42)
		t2, f2 := run(42)
		if t1 != t2 || fmt.Sprint(f1) != fmt.Sprint(f2) {
			t.Fatalf("same seed, different schedule:\n%s\nvs\n%s", t1, t2)
		}
		if len(f1) == 0 {
			t.Fatal("rate 0.5 over the script injected nothing; schedule test is vacuous")
		}
		t3, _ := run(43)
		if t1 == t3 {
			t.Fatal("different seeds produced an identical fault schedule")
		}
	})

	t.Run("TornRangeLeavesPrefix", func(t *testing.T) {
		// A torn multi-block write moves a whole-block prefix of its
		// vector and leaves the rest untouched — no block is half old,
		// half new.
		tb := chaos.TornRange(nil, chaos.TornOptions{})
		be := openWrapped(t, factory, func(inner bmmc.Backend) bmmc.Backend {
			tb = chaos.TornRange(inner, chaos.TornOptions{Seed: 7, TearNth: 1})
			return tb
		})
		tb.Disarm()
		writeAll(t, be, 1)
		tb.Arm()

		const runLen = 4 // consecutive blocks 0..3 of disk 0
		// The vector's frames sit in reverse memory order, so a tear that
		// cut the arena rather than the vector would show.
		arena := make([]bmmc.Record, runLen*blockSize)
		vec := make([][]bmmc.Record, runLen)
		for b := range vec {
			f := runLen - 1 - b
			vec[b] = arena[f*blockSize : (f+1)*blockSize]
			fill(vec[b], 2, 0, b)
		}
		err := tb.WriteBlockRanges([]bmmc.RangeXfer{{Disk: 0, Block: 0, Blocks: vec}})
		if !errors.Is(err, chaos.ErrInjectedFault) {
			t.Fatalf("want a torn-range fault, got %v", err)
		}

		tb.Disarm()
		sawOld := false
		for b := 0; b < runLen; b++ {
			got := make([]bmmc.Record, blockSize)
			if err := be.ReadBlockRanges([]bmmc.RangeXfer{{Disk: 0, Block: b, Blocks: one(got)}}); err != nil {
				t.Fatal(err)
			}
			gen := 0
			switch got[0] {
			case rec(1, 0, b, 0):
				gen, sawOld = 1, true
			case rec(2, 0, b, 0):
				gen = 2
			default:
				t.Fatalf("block %d starts with foreign record %+v", b, got[0])
			}
			if sawOld && gen == 2 {
				t.Fatalf("block %d is new after an old block: tear was not a prefix", b)
			}
			for i, g := range got {
				if want := rec(gen, 0, b, i); g != want {
					t.Fatalf("block %d record %d: intra-block tear (got %+v, want %+v)", b, i, g, want)
				}
			}
		}
		if !sawOld {
			t.Fatal("torn write landed all blocks; nothing was torn")
		}
	})

	t.Run("RecoveryWindow", func(t *testing.T) {
		// FailAfterN with RecoverAfter bounds the outage: the op before
		// the window and the op after it both succeed and persist.
		be := openWrapped(t, factory, func(inner bmmc.Backend) bmmc.Backend {
			return chaos.Flaky(inner, chaos.FlakyOptions{FailAfterN: 2, RecoverAfter: 1})
		})
		buf := make([]bmmc.Record, blockSize)
		for op := 0; op < 3; op++ {
			fill(buf, 3, 0, op)
			err := be.WriteBlockRanges([]bmmc.RangeXfer{{Disk: 0, Block: op, Blocks: one(buf)}})
			if wantFault := op == 1; (err != nil) != wantFault {
				t.Fatalf("op %d: err=%v, want fault=%v", op, err, wantFault)
			}
		}
		for _, block := range []int{0, 2} {
			got := make([]bmmc.Record, blockSize)
			if err := be.ReadBlockRanges([]bmmc.RangeXfer{{Disk: 0, Block: block, Blocks: one(got)}}); err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if want := rec(3, 0, block, i); g != want {
					t.Fatalf("recovered op on block %d did not persist: record %d is %+v", block, i, g)
				}
			}
		}
	})

	t.Run("LatencyHarmless", func(t *testing.T) {
		// Latency injection slows operations down but never changes what
		// they move, and it logs every operation without faulting any.
		log := &chaos.Log{}
		be := openWrapped(t, factory, func(inner bmmc.Backend) bmmc.Backend {
			return chaos.Latency(inner, chaos.LatencyOptions{
				Seed:        3,
				PerBlock:    time.Microsecond,
				Jitter:      0.5,
				DiskFactors: []float64{4, 1, 1, 1},
				Log:         log,
			})
		})
		writeAll(t, be, 6)
		checkAll(t, be, 6)
		if want := 2 * numDisks * numBlocks; log.Len() != want {
			t.Fatalf("latency log holds %d ops, want %d", log.Len(), want)
		}
		if faults := log.Faults(); len(faults) != 0 {
			t.Fatalf("latency wrapper injected faults: %v", faults)
		}
	})
}

// openWrapped runs the factory, wraps the result, and opens the wrapper
// with the harness geometry so it can capture the block size.
func openWrapped(t *testing.T, factory Factory, wrap func(bmmc.Backend) bmmc.Backend) bmmc.Backend {
	t.Helper()
	inner := factory(t)
	if inner == nil {
		t.Fatal("factory returned a nil Backend")
	}
	be := wrap(inner)
	if err := be.Open(numDisks, numBlocks, blockSize); err != nil {
		t.Fatalf("Open(%d disks, %d blocks, %d records/block): %v", numDisks, numBlocks, blockSize, err)
	}
	t.Cleanup(func() { be.Close() })
	return be
}

// chaosTranscript drives a fixed sequential script — a write and a read of
// the first two blocks of every disk — and renders each outcome, faults
// included, into one comparable string.
func chaosTranscript(be bmmc.Backend) string {
	out := ""
	buf := make([]bmmc.Record, blockSize)
	for _, kind := range []string{"W", "R"} {
		for disk := 0; disk < numDisks; disk++ {
			for block := 0; block < 2; block++ {
				var err error
				if kind == "W" {
					fill(buf, 9, disk, block)
					err = be.WriteBlockRanges([]bmmc.RangeXfer{{Disk: disk, Block: block, Blocks: one(buf)}})
				} else {
					err = be.ReadBlockRanges([]bmmc.RangeXfer{{Disk: disk, Block: block, Blocks: one(buf)}})
				}
				out += fmt.Sprintf("%s d%d b%d err=%v\n", kind, disk, block, err)
			}
		}
	}
	return out
}

// faultStrings renders the log's faulted operations for comparison.
func faultStrings(log *chaos.Log) []string {
	var out []string
	for _, op := range log.Faults() {
		out = append(out, op.String())
	}
	return out
}
