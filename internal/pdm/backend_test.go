package pdm

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShardedFileBackendLayout checks the round-robin placement contract:
// disk i's file lands in dirs[i mod len(dirs)] with a globally unique name.
func TestShardedFileBackendLayout(t *testing.T) {
	cfg := Config{N: 1 << 10, D: 4, B: 4, M: 1 << 6}
	dirs := []string{t.TempDir(), t.TempDir()}
	sys, err := NewSystem(cfg, ShardedFileBackend(dirs...))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	for disk := 0; disk < cfg.D; disk++ {
		want := filepath.Join(dirs[disk%2], "disk000"+string(rune('0'+disk))+".dat")
		if _, err := os.Stat(want); err != nil {
			t.Errorf("disk %d: expected file %s: %v", disk, want, err)
		}
	}
	for i, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != cfg.D/2 {
			t.Errorf("shard dir %d holds %d files, want %d", i, len(entries), cfg.D/2)
		}
	}

	// The sharded system behaves like any other: load, read back, sync.
	recs := make([]Record, cfg.N)
	for i := range recs {
		recs[i] = MakeRecord(uint64(i))
	}
	if err := sys.LoadRecords(PortionA, recs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got, err := sys.DumpRecords(PortionA)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, r, recs[i])
		}
	}
}

// TestShardedFileBackendNoDirs rejects an empty directory list at Open.
func TestShardedFileBackendNoDirs(t *testing.T) {
	cfg := Config{N: 1 << 10, D: 4, B: 4, M: 1 << 6}
	if _, err := NewSystem(cfg, ShardedFileBackend()); err == nil {
		t.Fatal("sharded backend with no directories unexpectedly opened")
	}
}

// TestBackendOpenOnce pins the single-open contract of the disk backends.
func TestBackendOpenOnce(t *testing.T) {
	be := MemBackend()
	if err := be.Open(2, 8, 4); err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if err := be.Open(2, 8, 4); err == nil {
		t.Fatal("second Open unexpectedly succeeded")
	}
}

// TestBackendUnopenedTransfer pins the error on transfers before Open.
func TestBackendUnopenedTransfer(t *testing.T) {
	be := MemBackend()
	buf := make([]Record, 4)
	if err := be.ReadBlockRanges([]RangeXfer{{Disk: 0, Block: 0, Data: buf}}); err == nil {
		t.Fatal("ReadBlocks before Open unexpectedly succeeded")
	}
}
