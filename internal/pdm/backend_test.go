package pdm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestShardedFileBackendLayout checks the round-robin placement contract:
// disk i's file lands in dirs[i mod len(dirs)] with a globally unique name.
func TestShardedFileBackendLayout(t *testing.T) {
	cfg := Config{N: 1 << 10, D: 4, B: 4, M: 1 << 6}
	dirs := []string{t.TempDir(), t.TempDir()}
	sys, err := NewSystemBackend(cfg, ShardedFileBackend(dirs...))
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
	if _, err := NewSystemBackend(cfg, ShardedFileBackend()); err == nil {
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
	if err := be.ReadBlocks([]BlockXfer{{Disk: 0, Block: 0, Data: buf}}); err == nil {
		t.Fatal("ReadBlocks before Open unexpectedly succeeded")
	}
}

// TestMemDiskCloseReleasesRecords: Close drops a MemDisk's record array,
// and every later transfer — single block, range, or block view — fails
// instead of touching freed storage.
func TestMemDiskCloseReleasesRecords(t *testing.T) {
	d := NewMemDisk(8, 4)
	buf := make([]Record, 4)
	if err := d.WriteBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.data != nil {
		t.Fatal("closed MemDisk still holds its records")
	}
	if err := d.ReadBlock(1, buf); !errors.Is(err, errDiskClosed) {
		t.Errorf("ReadBlock after Close: %v", err)
	}
	if err := d.WriteBlock(1, buf); !errors.Is(err, errDiskClosed) {
		t.Errorf("WriteBlock after Close: %v", err)
	}
	if err := d.ReadBlockRange(0, make([]Record, 8)); !errors.Is(err, errDiskClosed) {
		t.Errorf("ReadBlockRange after Close: %v", err)
	}
	if _, ok := d.BlockView(1); ok {
		t.Error("BlockView after Close returned a view")
	}

	// The same holds one layer up: a closed mem backend rejects reads.
	be := MemBackend()
	if err := be.Open(2, 8, 4); err != nil {
		t.Fatal(err)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	if err := be.ReadBlocks([]BlockXfer{{Disk: 0, Block: 0, Data: buf}}); !errors.Is(err, errDiskClosed) {
		t.Errorf("ReadBlocks on a closed mem backend: %v", err)
	}
}
