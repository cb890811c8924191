package pdm

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
	if err := be.ReadBlocks([]RangeXfer{{Disk: 0, Block: 0, Data: buf}}); err == nil {
		t.Fatal("ReadBlocks before Open unexpectedly succeeded")
	}
}

// TestMemDiskCloseReleasesRecords: Close drops the mem backend's record
// arrays, and every later transfer — single block, run, or block view —
// fails instead of touching freed storage.
func TestMemDiskCloseReleasesRecords(t *testing.T) {
	be := MemBackend()
	if err := be.Open(2, 8, 4); err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 4)
	if err := be.WriteBlocks([]RangeXfer{{Disk: 1, Block: 1, Data: buf}}); err != nil {
		t.Fatal(err)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	for disk, recs := range be.(*memBackend).disks {
		if recs != nil {
			t.Fatalf("closed mem backend still holds disk %d's records", disk)
		}
	}
	if err := be.ReadBlocks([]RangeXfer{{Disk: 1, Block: 1, Data: buf}}); !errors.Is(err, errDiskClosed) {
		t.Errorf("block read after Close: %v", err)
	}
	if err := be.WriteBlocks([]RangeXfer{{Disk: 1, Block: 1, Data: buf}}); !errors.Is(err, errDiskClosed) {
		t.Errorf("block write after Close: %v", err)
	}
	if err := be.ReadBlocks([]RangeXfer{{Disk: 0, Block: 0, Data: make([]Record, 8)}}); !errors.Is(err, errDiskClosed) {
		t.Errorf("run read after Close: %v", err)
	}
	if _, ok := be.(BlockViewer).BlockView(1, 1); ok {
		t.Error("BlockView after Close returned a view")
	}
}

// TestMemDiskBlockView: the mem backend's copy-free view aliases the stored
// block and rejects out-of-range disks and blocks.
func TestMemDiskBlockView(t *testing.T) {
	be := MemBackend()
	if err := be.Open(2, 2, 4); err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	recs := sequentialRecords(4)
	if err := be.WriteBlocks([]RangeXfer{{Disk: 1, Block: 1, Data: recs}}); err != nil {
		t.Fatal(err)
	}
	v, ok := be.(BlockViewer).BlockView(1, 1)
	if !ok || len(v) != 4 {
		t.Fatalf("BlockView(1, 1) = (%d records, %v)", len(v), ok)
	}
	for i := range recs {
		if v[i] != recs[i] {
			t.Fatalf("view diverges at %d", i)
		}
	}
	for _, c := range [][2]int{{1, 2}, {1, -1}, {2, 0}, {-1, 0}} {
		if _, ok := be.(BlockViewer).BlockView(c[0], c[1]); ok {
			t.Fatalf("BlockView accepted disk %d block %d", c[0], c[1])
		}
	}
}

// TestBlockRangeBounds: both built-in backends reject transfers that are
// empty, misaligned, out of bounds, or on a missing disk, on reads and
// writes alike.
func TestBlockRangeBounds(t *testing.T) {
	const nb, bs = 4, 8
	cases := []struct {
		name        string
		disk, block int
		recs        int
	}{
		{"negative block", 0, -1, bs},
		{"empty range", 0, 0, 0},
		{"misaligned range", 0, 0, bs + 1},
		{"past the end", 0, 3, 2 * bs},
		{"missing disk", 1, 0, bs},
	}
	for name, be := range map[string]Backend{"mem": MemBackend(), "file": FileBackend(t.TempDir())} {
		if err := be.Open(1, nb, bs); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { be.Close() })
		for _, c := range cases {
			xs := []RangeXfer{{Disk: c.disk, Block: c.block, Data: make([]Record, c.recs)}}
			if err := be.ReadBlocks(xs); err == nil {
				t.Errorf("%s: ReadBlocks accepted %s", name, c.name)
			}
			if err := be.WriteBlocks(xs); err == nil {
				t.Errorf("%s: WriteBlocks accepted %s", name, c.name)
			}
		}
	}
}

// TestFileDiskWireFormat pins the on-disk bytes of the file backend: a
// block written through WriteBlocks must appear in the file as the
// per-record Encode sequence, whichever record path (mapping, slab view or
// portable copy) the build uses. A change here would silently break files
// written by other builds or earlier releases.
func TestFileDiskWireFormat(t *testing.T) {
	dir := t.TempDir()
	const blocks, bsize = 4, 8
	be := FileBackend(dir)
	if err := be.Open(1, blocks, bsize); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(521))
	recs := randomRecords(rng, bsize)
	if err := be.WriteBlocks([]RangeXfer{{Disk: 0, Block: 2, Data: recs}}); err != nil {
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
	if err := be.ReadBlocks([]RangeXfer{{Disk: 0, Block: 2, Data: got}}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("ReadBlocks diverges at %d", i)
		}
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileDiskMmapMatchesPread pins the file backend's mapped fast path
// against the pread/pwrite reference: the same writes must leave
// byte-identical files, and each path must read back what the other wrote.
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
	open := func(t *testing.T, dir string) Backend {
		t.Helper()
		be := FileBackend(dir)
		if err := be.Open(1, nb, bs); err != nil {
			t.Fatal(err)
		}
		return be
	}
	writeAll := func(t *testing.T, dir string) {
		t.Helper()
		be := open(t, dir)
		// Mix single-block transfers and a run.
		for blk := 0; blk < 3; blk++ {
			if err := be.WriteBlocks([]RangeXfer{{Disk: 0, Block: blk, Data: payload(blk)}}); err != nil {
				t.Fatal(err)
			}
		}
		run := append(append(append([]Record{}, payload(3)...), payload(4)...), payload(5)...)
		if err := be.WriteBlocks([]RangeXfer{{Disk: 0, Block: 3, Data: run}}); err != nil {
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
		if mapped := be.(*fileBackend).disks[0].raw != nil; mapped != wantMapped {
			t.Fatalf("mapped = %v, want %v", mapped, wantMapped)
		}
		view := be.(BlockViewer)
		if _, ok := view.BlockView(0, 0); ok != wantMapped {
			t.Errorf("BlockView availability = %v, want %v", ok, wantMapped)
		}
		for blk := 0; blk < nb; blk++ {
			got := make([]Record, bs)
			if err := be.ReadBlocks([]RangeXfer{{Disk: 0, Block: blk, Data: got}}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, payload(blk)) {
				t.Errorf("block %d read back wrong records", blk)
			}
			if v, ok := view.BlockView(0, blk); ok && !reflect.DeepEqual(v, payload(blk)) {
				t.Errorf("block %d view holds wrong records", blk)
			}
		}
		run := make([]Record, 3*bs)
		if err := be.ReadBlocks([]RangeXfer{{Disk: 0, Block: 2, Data: run}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if !reflect.DeepEqual(run[i*bs:(i+1)*bs], payload(2+i)) {
				t.Errorf("run read block %d wrong", 2+i)
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
