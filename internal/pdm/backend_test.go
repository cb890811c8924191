package pdm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
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
	if err := sys.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got, err := sys.DumpRecords()
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

// TestFileSyncRangeBounds: the file backend rejects a Sync range outside
// its blocks rather than slicing past its mapping.
func TestFileSyncRangeBounds(t *testing.T) {
	be := FileBackend(t.TempDir())
	if err := be.Open(1, 4, 8); err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	for _, c := range [][2]int{{-1, 1}, {0, -1}, {3, 2}} {
		if err := be.Sync(c[0], c[1]); err == nil {
			t.Errorf("Sync(%d, %d) accepted a range outside [0,4)", c[0], c[1])
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
	if err := be.Sync(0, blocks); err != nil {
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
// A mapped disk stores a run shorter than a page through the mapping and
// pwrites a longer one, so the writes mix both, and the pwritten run is
// read back through ReadBlocks and the mapping's views before any Sync,
// overwritten in one block through the mapping, and read again.
func TestFileDiskMmapMatchesPread(t *testing.T) {
	if !canMmapDisks || !RecordSlabViews {
		t.Skip("no mapped fast path on this host")
	}
	const bs = 8
	// Blocks 0..2 are single writes, 3..5 a sub-page run, and the rest one
	// run longer than a page, whose block `over` is then overwritten.
	long := os.Getpagesize()/(bs*RecordBytes) + 2
	nb := 6 + long
	over := 6 + long/2
	payload := func(blk int) []Record {
		recs := make([]Record, bs)
		for i := range recs {
			recs[i] = MakeRecord(uint64(blk*1000 + i))
		}
		return recs
	}
	want := func(blk int) []Record {
		if blk == over {
			return payload(nb + blk)
		}
		return payload(blk)
	}
	run := func(from, to int, block func(int) []Record) []Record {
		var recs []Record
		for blk := from; blk < to; blk++ {
			recs = append(recs, block(blk)...)
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
	// readBack requires blocks [from, to) to hold block(blk), through one
	// ReadBlocks run and, on a mapped disk, through every block's view.
	readBack := func(t *testing.T, be Backend, from, to int, block func(int) []Record) {
		t.Helper()
		got := make([]Record, (to-from)*bs)
		if err := be.ReadBlocks([]RangeXfer{{Disk: 0, Block: from, Data: got}}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, run(from, to, block)) {
			t.Errorf("ReadBlocks of blocks [%d,%d) read back wrong records", from, to)
		}
		for blk := from; blk < to; blk++ {
			if v, ok := be.(BlockViewer).BlockView(0, blk); ok && !reflect.DeepEqual(v, block(blk)) {
				t.Errorf("block %d view holds wrong records", blk)
			}
		}
	}
	writeAll := func(t *testing.T, dir string) {
		t.Helper()
		be := open(t, dir)
		for blk := 0; blk < 3; blk++ {
			if err := be.WriteBlocks([]RangeXfer{{Disk: 0, Block: blk, Data: payload(blk)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := be.WriteBlocks([]RangeXfer{{Disk: 0, Block: 3, Data: run(3, 6, payload)}}); err != nil {
			t.Fatal(err)
		}
		if err := be.WriteBlocks([]RangeXfer{{Disk: 0, Block: 6, Data: run(6, nb, payload)}}); err != nil {
			t.Fatal(err)
		}
		readBack(t, be, 6, nb, payload)
		if err := be.WriteBlocks([]RangeXfer{{Disk: 0, Block: over, Data: want(over)}}); err != nil {
			t.Fatal(err)
		}
		readBack(t, be, 0, nb, want)
		// Two ranged syncs, the second starting mid-page.
		for _, block := range []int{0, nb / 2} {
			if err := be.Sync(block, nb/2); err != nil {
				t.Fatalf("Sync(%d, %d): %v", block, nb/2, err)
			}
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
		if _, ok := be.(BlockViewer).BlockView(0, 0); ok != wantMapped {
			t.Errorf("BlockView availability = %v, want %v", ok, wantMapped)
		}
		for blk := 0; blk < nb; blk++ {
			readBack(t, be, blk, blk+1, want)
		}
		readBack(t, be, 2, nb, want)
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

// TestFileDiskWritebackFollowsSync pins when the file backend starts
// writeback ahead of a Sync: only once a Sync has succeeded, and then once
// for each run of a page or more that lies inside the range that Sync
// covered, carrying the run's own byte offset and length. Sub-page runs,
// runs outside the range and runs straddling its end start none, and the
// next Sync moves the range. Mapped and unmapped disks follow the same
// rule and leave byte-identical files, and every block reads back what was
// last written to it. A Sync racing writes shares the range with them
// under the disk locks (run under -race).
func TestFileDiskWritebackFollowsSync(t *testing.T) {
	const bs = 8
	page := os.Getpagesize() / (bs * RecordBytes) // blocks in one page
	half := page + 2
	nb := 2 * half

	type call struct {
		file   string
		off, n int64
	}
	var (
		mu    sync.Mutex
		calls []call
	)
	defer func(old func(*os.File, int64, int64)) { startWriteback = old }(startWriteback)
	startWriteback = func(f *os.File, off, n int64) {
		mu.Lock()
		calls = append(calls, call{filepath.Base(f.Name()), off, n})
		mu.Unlock()
	}
	// drain returns the calls made since it last ran.
	drain := func() []call {
		mu.Lock()
		defer mu.Unlock()
		got := calls
		calls = nil
		return got
	}
	// pageRun is the call a page-long run at (disk, block) should make.
	pageRun := func(disk, block int) call {
		return call{fmt.Sprintf("disk%04d.dat", disk), int64(block * bs * RecordBytes), int64(page * bs * RecordBytes)}
	}

	runOn := func(t *testing.T, dir string, mapped bool) {
		be := FileBackend(dir)
		if err := be.Open(2, nb, bs); err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		if got := be.(*fileBackend).disks[0].raw != nil; got != mapped {
			t.Fatalf("mapped = %v, want %v", got, mapped)
		}
		drain()
		want := [2][]Record{make([]Record, nb*bs), make([]Record, nb*bs)}
		next := uint64(1)
		write := func(disk, block, n int) {
			t.Helper()
			recs := make([]Record, n*bs)
			for i := range recs {
				recs[i] = MakeRecord(next)
				next++
			}
			if err := be.WriteBlocks([]RangeXfer{{Disk: disk, Block: block, Data: recs}}); err != nil {
				t.Fatal(err)
			}
			copy(want[disk][block*bs:], recs)
		}
		syncHalf := func(block int) {
			t.Helper()
			if err := be.Sync(block, half); err != nil {
				t.Fatalf("Sync(%d, %d): %v", block, half, err)
			}
		}
		expect := func(when string, wantCalls ...call) {
			t.Helper()
			if got := drain(); !slices.Equal(got, wantCalls) {
				t.Errorf("%s: writeback calls %v, want %v", when, got, wantCalls)
			}
		}

		write(0, 0, page)
		write(1, half, page)
		expect("before any Sync")

		syncHalf(0)
		expect("by Sync itself")
		write(0, 0, page)
		write(1, 1, page)
		write(0, page, 2)      // sub-page, inside the range
		write(1, 0, 1)         // one block, inside the range
		write(0, half, page)   // outside the range
		write(1, half-1, page) // straddles the range's end
		expect("after Sync of the first half", pageRun(0, 0), pageRun(1, 1))

		syncHalf(half)
		write(0, 0, page) // the previous range
		write(0, half, page)
		write(1, half+2, page) // ends at the disk's last block
		write(1, half, 2)
		expect("after Sync of the second half", pageRun(0, half), pageRun(1, half+2))

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := be.Sync(i%2*half, half); err != nil {
					t.Errorf("concurrent Sync: %v", err)
					return
				}
			}
		}()
		for i := 0; i < 8; i++ {
			write(1, i%2*half, page)
		}
		wg.Wait()
		drain()

		for disk := 0; disk < 2; disk++ {
			got := make([]Record, nb*bs)
			if err := be.ReadBlocks([]RangeXfer{{Disk: disk, Block: 0, Data: got}}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want[disk]) {
				t.Errorf("disk %d reads back records other than the last written", disk)
			}
			for blk := 0; blk < nb; blk++ {
				if v, ok := be.(BlockViewer).BlockView(disk, blk); ok != mapped {
					t.Fatalf("BlockView availability = %v, want %v", ok, mapped)
				} else if ok && !slices.Equal(v, want[disk][blk*bs:(blk+1)*bs]) {
					t.Errorf("disk %d block %d view holds records other than the last written", disk, blk)
				}
			}
		}
	}

	defer func(old bool) { fileDiskMmap = old }(fileDiskMmap)
	root := t.TempDir()
	dirs := map[bool]string{}
	for _, mapped := range []bool{true, false} {
		name := "unmapped"
		if mapped {
			name = "mapped"
		}
		t.Run(name, func(t *testing.T) {
			if mapped && (!canMmapDisks || !RecordSlabViews) {
				t.Skip("no mapped fast path on this host")
			}
			dir := filepath.Join(root, name)
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			fileDiskMmap = mapped
			runOn(t, dir, mapped)
			dirs[mapped] = dir
		})
	}
	if len(dirs) < 2 {
		return
	}
	for disk := 0; disk < 2; disk++ {
		name := fmt.Sprintf("disk%04d.dat", disk)
		a, err := os.ReadFile(filepath.Join(dirs[true], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[false], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: mapped and unmapped disks wrote different bytes", name)
		}
	}
}
