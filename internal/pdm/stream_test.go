package pdm

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadFromDumpToRoundTrip: the streaming data plane round-trips a wire
// stream through the backend and back, byte-identical, on both the memory
// and the file backends.
func TestLoadFromDumpToRoundTrip(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(520))
	recs := randomRecords(rng, cfg.N)
	wire := make([]byte, cfg.N*RecordBytes)
	for i, r := range recs {
		r.Encode(wire[i*RecordBytes:])
	}
	for name, be := range map[string]Backend{
		"mem":  MemBackend(),
		"file": FileBackend(t.TempDir()),
	} {
		s, err := NewSystem(cfg, be)
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.LoadFrom(context.Background(), PortionA, bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%s: LoadFrom: %v", name, err)
		}
		if n != int64(len(wire)) {
			t.Fatalf("%s: LoadFrom consumed %d bytes, want %d", name, n, len(wire))
		}
		// The streamed load must be indistinguishable from LoadRecords.
		got, err := s.DumpRecords(PortionA)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d diverges after LoadFrom", name, i)
			}
		}
		var out bytes.Buffer
		n, err = s.DumpTo(context.Background(), PortionA, &out)
		if err != nil {
			t.Fatalf("%s: DumpTo: %v", name, err)
		}
		if n != int64(len(wire)) || !bytes.Equal(out.Bytes(), wire) {
			t.Fatalf("%s: DumpTo returned %d bytes, diverging from the input stream", name, n)
		}
		if s.Stats().ParallelIOs() != 0 {
			t.Errorf("%s: streaming counted as parallel I/O: %v", name, s.Stats())
		}
		s.Close()
	}
}

// TestLoadFromShortStream: fewer than N records is io.ErrUnexpectedEOF and
// the stored records are untouched — nothing is committed before the whole
// stream has arrived.
func TestLoadFromShortStream(t *testing.T) {
	cfg := testConfig()
	s, err := NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := sequentialRecords(cfg.N)
	if err := s.LoadRecords(PortionA, before); err != nil {
		t.Fatal(err)
	}
	short := make([]byte, cfg.N*RecordBytes/2+3)
	if _, err := s.LoadFrom(context.Background(), PortionA, bytes.NewReader(short)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short LoadFrom error = %v, want io.ErrUnexpectedEOF", err)
	}
	after, err := s.DumpRecords(PortionA)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("short LoadFrom mutated record %d", i)
		}
	}
}

// TestLoadFromCanceled: a canceled context aborts with the stored records
// unchanged and a context error in the chain.
func TestLoadFromCanceled(t *testing.T) {
	cfg := testConfig()
	s, err := NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := sequentialRecords(cfg.N)
	if err := s.LoadRecords(PortionA, before); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wire := make([]byte, cfg.N*RecordBytes)
	if _, err := s.LoadFrom(ctx, PortionA, bytes.NewReader(wire)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled LoadFrom error = %v, want context.Canceled", err)
	}
	after, _ := s.DumpRecords(PortionA)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("canceled LoadFrom mutated record %d", i)
		}
	}
}

// TestDumpToCanceled: cancellation aborts a dump between chunks with a
// context error.
func TestDumpToCanceled(t *testing.T) {
	cfg := testConfig()
	s, err := NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.LoadRecords(PortionA, sequentialRecords(cfg.N)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DumpTo(ctx, PortionA, io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled DumpTo error = %v, want context.Canceled", err)
	}
}

// TestFileDiskWireFormat pins the on-disk bytes of the file backend: a
// block written through WriteBlockRanges must appear in the file as the
// per-record Encode sequence, whichever record path (slab view or portable
// copy) the build uses. A change here would silently break files written
// by other builds or earlier releases.
func TestFileDiskWireFormat(t *testing.T) {
	dir := t.TempDir()
	const blocks, bsize = 4, 8
	be := FileBackend(dir)
	if err := be.Open(1, blocks, bsize); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(521))
	recs := randomRecords(rng, bsize)
	if err := be.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: 2, Blocks: [][]Record{recs}}}); err != nil {
		t.Fatal(err)
	}
	if err := be.Sync(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "disk0000.dat"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, bsize*RecordBytes)
	for i, r := range recs {
		r.Encode(want[i*RecordBytes:])
	}
	off := 2 * bsize * RecordBytes
	if !bytes.Equal(raw[off:off+len(want)], want) {
		t.Fatal("file bytes diverge from per-record Encode wire format")
	}
	got := make([]Record, bsize)
	if err := be.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 2, Blocks: [][]Record{got}}}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("ReadBlockRanges diverges at %d", i)
		}
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMemDiskBlockView: the memory backend's copy-free view aliases the
// stored block and rejects out-of-range disks and block numbers.
func TestMemDiskBlockView(t *testing.T) {
	be := MemBackend()
	if err := be.Open(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	recs := sequentialRecords(4)
	if err := be.WriteBlockRanges([]RangeXfer{{Disk: 0, Block: 1, Blocks: [][]Record{recs}}}); err != nil {
		t.Fatal(err)
	}
	viewer := be.(BlockViewer)
	v, ok := viewer.BlockView(0, 1)
	if !ok || len(v) != 4 {
		t.Fatalf("BlockView(0, 1) = (%d records, %v)", len(v), ok)
	}
	for i := range recs {
		if v[i] != recs[i] {
			t.Fatalf("view diverges at %d", i)
		}
	}
	if _, ok := viewer.BlockView(0, 2); ok {
		t.Fatal("BlockView accepted an out-of-range block")
	}
	if _, ok := viewer.BlockView(0, -1); ok {
		t.Fatal("BlockView accepted a negative block")
	}
	if _, ok := viewer.BlockView(1, 0); ok {
		t.Fatal("BlockView accepted an out-of-range disk")
	}
}
