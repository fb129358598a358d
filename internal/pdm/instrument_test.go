package pdm

import (
	"reflect"
	"sync"
	"testing"
)

// TestInstrumentBackendSamples checks the wrapper times every call with
// exact block accounting and preserves the inner backend's capabilities.
func TestInstrumentBackendSamples(t *testing.T) {
	var mu sync.Mutex
	var samples []OpSample
	be := InstrumentBackend(MemBackend(), func(s OpSample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	})

	if _, ok := be.(BlockViewer); !ok {
		t.Fatal("instrumented mem backend lost BlockViewer")
	}

	const bs = 4
	if err := be.Open(2, 8, bs); err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	buf := make([]Record, 2*bs)
	if err := be.WriteBlockRanges([]RangeXfer{
		{Disk: 0, Block: 0, Blocks: vec(buf[:bs], bs)},
		{Disk: 1, Block: 3, Blocks: vec(buf[bs:], bs)},
	}); err != nil {
		t.Fatal(err)
	}
	rbuf := make([]Record, 3*bs)
	if err := be.ReadBlockRanges([]RangeXfer{
		{Disk: 0, Block: 0, Blocks: vec(rbuf[:2*bs], bs)},
		{Disk: 1, Block: 3, Blocks: vec(rbuf[2*bs:], bs)},
	}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	w := samples[0]
	if w.Op != "write" || w.Blocks != 2 || w.Runs != 2 || !reflect.DeepEqual(w.PerDisk, []int{1, 1}) {
		t.Fatalf("write sample: %+v", w)
	}
	// A coalesced call: 3 blocks in 2 runs, PerDisk indexed by disk.
	r := samples[1]
	if r.Op != "read" || r.Blocks != 3 || r.Runs != 2 || !reflect.DeepEqual(r.PerDisk, []int{2, 1}) {
		t.Fatalf("coalesced read sample: %+v", r)
	}
	if r.Dur < 0 || r.End().Before(r.Start) {
		t.Fatalf("nonsensical timing: %+v", r)
	}

	// A nil observer is a no-op wrap: the backend comes back untouched.
	inner := MemBackend()
	if InstrumentBackend(inner, nil) != inner {
		t.Fatal("nil observer should return the inner backend")
	}
}
