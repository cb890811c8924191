// Package backendtest is a reusable conformance harness for
// implementations of the bmmc.Backend storage interface. Third-party
// backends (object storage, network block services, compressed files)
// self-certify against the documented contract by calling Run from a
// regular Go test:
//
//	func TestMyBackend(t *testing.T) {
//	    backendtest.Run(t, func(t *testing.T) bmmc.Backend {
//	        return mypkg.NewBackend(t.TempDir())
//	    })
//	}
//
// The harness exercises exactly the guarantees the disk system above the
// backend relies on: geometry sizing at Open, block and multi-block run
// round trips, batches carrying several runs for one disk, tolerance of
// concurrent ReadBlocks/WriteBlocks calls from distinct goroutines with
// per-disk serialization owned by the backend, independence from the
// caller's transfer buffers after a call returns, and Sync/Close
// semantics. The library's own MemBackend, FileBackend,
// and ShardedBackend pass this harness in CI (see the package tests).
package backendtest

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	bmmc "repro"
)

// Factory returns a fresh, unopened Backend for one subtest. The harness
// calls Open itself (exactly once per returned backend, per the contract)
// and closes the backend when the subtest ends; factories needing scratch
// directories should allocate them with t.TempDir.
type Factory func(t *testing.T) bmmc.Backend

// Harness geometry: small enough to be fast, large enough that batches,
// stripes, and concurrency are all exercised.
const (
	numDisks  = 4
	numBlocks = 8
	blockSize = 4
)

// rec returns the canonical record for position i of (disk, block) under
// generation gen, so every block's content is distinct and self-describing.
func rec(gen, disk, block, i int) bmmc.Record {
	return bmmc.Record{
		Key: uint64(gen)<<32 | uint64(disk)<<16 | uint64(block)<<8 | uint64(i),
		Tag: uint64(disk*numBlocks+block) ^ uint64(gen),
	}
}

// fill writes generation gen's canonical content into buf for (disk, block).
func fill(buf []bmmc.Record, gen, disk, block int) {
	for i := range buf {
		buf[i] = rec(gen, disk, block, i)
	}
}

// open runs the factory and opens the result with the harness geometry,
// registering cleanup.
func open(t *testing.T, factory Factory) bmmc.Backend {
	t.Helper()
	be := factory(t)
	if be == nil {
		t.Fatal("factory returned a nil Backend")
	}
	if err := be.Open(numDisks, numBlocks, blockSize); err != nil {
		t.Fatalf("Open(%d disks, %d blocks, %d records/block): %v", numDisks, numBlocks, blockSize, err)
	}
	t.Cleanup(func() { be.Close() })
	return be
}

// writeAll stores generation gen's canonical content in every block,
// batching one block per disk the way the disk system's parallel writes do.
func writeAll(t *testing.T, be bmmc.Backend, gen int) {
	t.Helper()
	for block := 0; block < numBlocks; block++ {
		xfers := make([]bmmc.RangeXfer, numDisks)
		for disk := 0; disk < numDisks; disk++ {
			data := make([]bmmc.Record, blockSize)
			fill(data, gen, disk, block)
			xfers[disk] = bmmc.RangeXfer{Disk: disk, Block: block, Data: data}
		}
		if err := be.WriteBlocks(xfers); err != nil {
			t.Fatalf("WriteBlocks(stripe %d): %v", block, err)
		}
	}
}

// checkAll reads every block back (one batch per stripe) and verifies
// generation gen's content.
func checkAll(t *testing.T, be bmmc.Backend, gen int) {
	t.Helper()
	for block := 0; block < numBlocks; block++ {
		xfers := make([]bmmc.RangeXfer, numDisks)
		for disk := 0; disk < numDisks; disk++ {
			xfers[disk] = bmmc.RangeXfer{Disk: disk, Block: block, Data: make([]bmmc.Record, blockSize)}
		}
		if err := be.ReadBlocks(xfers); err != nil {
			t.Fatalf("ReadBlocks(stripe %d): %v", block, err)
		}
		for disk := 0; disk < numDisks; disk++ {
			for i, got := range xfers[disk].Data {
				if want := rec(gen, disk, block, i); got != want {
					t.Fatalf("disk %d block %d record %d: got %+v, want %+v", disk, block, i, got, want)
				}
			}
		}
	}
}

// run returns generation gen's canonical content for the n blocks of disk
// starting at block0, laid out as one run.
func run(gen, disk, block0, n int) []bmmc.Record {
	data := make([]bmmc.Record, n*blockSize)
	for b := 0; b < n; b++ {
		fill(data[b*blockSize:(b+1)*blockSize], gen, disk, block0+b)
	}
	return data
}

// checkRun reads the n blocks of disk starting at block0 as one run and
// verifies generation gen's content.
func checkRun(t *testing.T, be bmmc.Backend, gen, disk, block0, n int) {
	t.Helper()
	got := make([]bmmc.Record, n*blockSize)
	if err := be.ReadBlocks([]bmmc.RangeXfer{{Disk: disk, Block: block0, Data: got}}); err != nil {
		t.Fatalf("ReadBlocks(disk %d blocks [%d,%d)): %v", disk, block0, block0+n, err)
	}
	for i, g := range got {
		if want := rec(gen, disk, block0+i/blockSize, i%blockSize); g != want {
			t.Fatalf("disk %d block %d record %d: got %+v, want %+v", disk, block0+i/blockSize, i%blockSize, g, want)
		}
	}
}

// Run exercises the Backend contract against backends produced by factory.
// Every subtest gets a fresh backend; failures name the violated clause.
func Run(t *testing.T, factory Factory) {
	t.Run("RoundTrip", func(t *testing.T) {
		// Every (disk, block) stores and returns a full block independently;
		// overwrites replace content.
		be := open(t, factory)
		writeAll(t, be, 1)
		checkAll(t, be, 1)
		writeAll(t, be, 2) // overwrite every block
		checkAll(t, be, 2)
	})

	t.Run("BufferAliasing", func(t *testing.T) {
		// WriteBlocks must capture the transfer's content before returning:
		// the disk system reuses one scratch slice across batches, so a
		// backend holding a reference to Data corrupts the previous write.
		be := open(t, factory)
		buf := make([]bmmc.Record, blockSize)
		for block := 0; block < numBlocks; block++ {
			fill(buf, 3, 0, block)
			if err := be.WriteBlocks([]bmmc.RangeXfer{{Disk: 0, Block: block, Data: buf}}); err != nil {
				t.Fatalf("WriteBlocks(block %d): %v", block, err)
			}
			// Scribble over the shared buffer before the next use.
			for i := range buf {
				buf[i] = bmmc.Record{Key: ^uint64(0), Tag: ^uint64(0)}
			}
		}
		for block := 0; block < numBlocks; block++ {
			got := make([]bmmc.Record, blockSize)
			if err := be.ReadBlocks([]bmmc.RangeXfer{{Disk: 0, Block: block, Data: got}}); err != nil {
				t.Fatalf("ReadBlocks(block %d): %v", block, err)
			}
			for i, g := range got {
				if want := rec(3, 0, block, i); g != want {
					t.Fatalf("block %d record %d: backend aliased the caller's buffer (got %+v, want %+v)", block, i, g, want)
				}
			}
		}
	})

	t.Run("ConcurrentReadWrite", func(t *testing.T) {
		// The pipelined pass runner overlaps a prefetch ReadBlocks with an
		// in-flight WriteBlocks on distinct blocks of the same disks. Both
		// must proceed without corruption (run this harness under -race).
		be := open(t, factory)
		writeAll(t, be, 4)
		const half = numBlocks / 2
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() { // reader: blocks 0..half-1, generation 4
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for block := 0; block < half; block++ {
					xfers := make([]bmmc.RangeXfer, numDisks)
					for disk := 0; disk < numDisks; disk++ {
						xfers[disk] = bmmc.RangeXfer{Disk: disk, Block: block, Data: make([]bmmc.Record, blockSize)}
					}
					if err := be.ReadBlocks(xfers); err != nil {
						errs <- fmt.Errorf("concurrent read: %w", err)
						return
					}
					for disk := 0; disk < numDisks; disk++ {
						for i, got := range xfers[disk].Data {
							if want := rec(4, disk, block, i); got != want {
								errs <- fmt.Errorf("torn read at disk %d block %d record %d: %+v", disk, block, i, got)
								return
							}
						}
					}
				}
			}
		}()
		go func() { // writer: blocks half..numBlocks-1, new generation
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for block := half; block < numBlocks; block++ {
					xfers := make([]bmmc.RangeXfer, numDisks)
					for disk := 0; disk < numDisks; disk++ {
						data := make([]bmmc.Record, blockSize)
						fill(data, 5+round, disk, block)
						xfers[disk] = bmmc.RangeXfer{Disk: disk, Block: block, Data: data}
					}
					if err := be.WriteBlocks(xfers); err != nil {
						errs <- fmt.Errorf("concurrent write: %w", err)
						return
					}
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Final state: low blocks still generation 4, high blocks the last
		// written generation.
		for block := half; block < numBlocks; block++ {
			got := make([]bmmc.Record, blockSize)
			for disk := 0; disk < numDisks; disk++ {
				if err := be.ReadBlocks([]bmmc.RangeXfer{{Disk: disk, Block: block, Data: got}}); err != nil {
					t.Fatal(err)
				}
				for i, g := range got {
					if want := rec(12, disk, block, i); g != want {
						t.Fatalf("disk %d block %d record %d after concurrent writes: got %+v, want %+v", disk, block, i, g, want)
					}
				}
			}
		}
	})

	t.Run("PerDiskSerialization", func(t *testing.T) {
		// Distinct goroutines may address the same disk concurrently; the
		// backend owns per-disk serialization. Hammer one disk from many
		// goroutines on disjoint blocks and verify nothing tears.
		be := open(t, factory)
		var wg sync.WaitGroup
		errs := make(chan error, numBlocks)
		for block := 0; block < numBlocks; block++ {
			wg.Add(1)
			go func(block int) {
				defer wg.Done()
				data := make([]bmmc.Record, blockSize)
				got := make([]bmmc.Record, blockSize)
				for round := 0; round < 16; round++ {
					fill(data, 100+round, 1, block)
					if err := be.WriteBlocks([]bmmc.RangeXfer{{Disk: 1, Block: block, Data: data}}); err != nil {
						errs <- fmt.Errorf("write disk 1 block %d: %w", block, err)
						return
					}
					if err := be.ReadBlocks([]bmmc.RangeXfer{{Disk: 1, Block: block, Data: got}}); err != nil {
						errs <- fmt.Errorf("read disk 1 block %d: %w", block, err)
						return
					}
					for i, g := range got {
						if want := rec(100+round, 1, block, i); g != want {
							errs <- fmt.Errorf("disk 1 block %d record %d round %d: got %+v, want %+v", block, i, round, g, want)
							return
						}
					}
				}
			}(block)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})

	t.Run("RangeRoundTrip", func(t *testing.T) {
		// A multi-block run moves exactly the records the equivalent
		// one-block transfers would: a run written whole reads back block
		// by block without spilling onto its neighbors, and blocks written
		// one by one read back as one run.
		be := open(t, factory)
		writeAll(t, be, 1)
		if err := be.WriteBlocks([]bmmc.RangeXfer{{Disk: 2, Block: 1, Data: run(20, 2, 1, numBlocks-2)}}); err != nil {
			t.Fatalf("WriteBlocks(disk 2 blocks [1,%d)): %v", numBlocks-1, err)
		}
		for block := 0; block < numBlocks; block++ {
			gen := 20
			if block == 0 || block == numBlocks-1 {
				gen = 1
			}
			checkRun(t, be, gen, 2, block, 1)
		}
		for block := 2; block < 6; block++ {
			if err := be.WriteBlocks([]bmmc.RangeXfer{{Disk: 3, Block: block, Data: run(21, 3, block, 1)}}); err != nil {
				t.Fatalf("WriteBlocks(disk 3 block %d): %v", block, err)
			}
		}
		checkRun(t, be, 21, 3, 2, 4)
	})

	t.Run("SameDiskRuns", func(t *testing.T) {
		// One batch may carry several runs for one disk: here two
		// non-adjacent runs on disk 1 around a run on disk 0, written in
		// one call and read back in one call.
		be := open(t, factory)
		writeAll(t, be, 1)
		shape := [][3]int{{1, 5, 2}, {0, 0, 3}, {1, 1, 2}} // disk, first block, blocks
		xfers := make([]bmmc.RangeXfer, len(shape))
		for i, r := range shape {
			xfers[i] = bmmc.RangeXfer{Disk: r[0], Block: r[1], Data: run(30, r[0], r[1], r[2])}
		}
		if err := be.WriteBlocks(xfers); err != nil {
			t.Fatalf("WriteBlocks(%v): %v", shape, err)
		}
		for block := 0; block < numBlocks; block++ {
			gen := 1
			if block == 1 || block == 2 || block == 5 || block == 6 {
				gen = 30
			}
			checkRun(t, be, gen, 1, block, 1)
		}
		for i, r := range shape {
			xfers[i].Data = make([]bmmc.Record, r[2]*blockSize)
		}
		if err := be.ReadBlocks(xfers); err != nil {
			t.Fatalf("ReadBlocks(%v): %v", shape, err)
		}
		for i, r := range shape {
			if want := run(30, r[0], r[1], r[2]); !slices.Equal(xfers[i].Data, want) {
				t.Fatalf("run %d of one batch (disk %d blocks [%d,%d)) read back wrong", i, r[0], r[1], r[1]+r[2])
			}
		}
	})

	t.Run("ConcurrentRanges", func(t *testing.T) {
		// Concurrent dispatch moves each run of a batch on its own
		// goroutine, so a run read and a run write may reach one disk at
		// once; the backend serializes them (run this harness under -race).
		be := open(t, factory)
		writeAll(t, be, 4)
		const half, rounds = numBlocks / 2, 16
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			got := make([]bmmc.Record, half*blockSize)
			for round := 0; round < rounds; round++ {
				if err := be.ReadBlocks([]bmmc.RangeXfer{{Disk: 2, Block: 0, Data: got}}); err != nil {
					errs <- fmt.Errorf("concurrent run read: %w", err)
					return
				}
				if !slices.Equal(got, run(4, 2, 0, half)) {
					errs <- fmt.Errorf("run read of disk 2 blocks [0,%d) torn by a concurrent run write", half)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := be.WriteBlocks([]bmmc.RangeXfer{{Disk: 2, Block: half, Data: run(40+round, 2, half, half)}}); err != nil {
					errs <- fmt.Errorf("concurrent run write: %w", err)
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		checkRun(t, be, 40+rounds-1, 2, half, half)
	})

	t.Run("SyncClose", func(t *testing.T) {
		// Sync may be called at any point between transfers, over any run
		// of blocks, and must not disturb stored data. The two halves sync
		// separately, as the disk system syncs one portion: the second
		// half starts mid-page in a file (block 4 is byte 256), so a
		// backend that hands the range to the OS must align it itself.
		// Close succeeds after Sync and ends the backend's life (no
		// transfers follow — the harness never reuses it).
		be := open(t, factory)
		writeAll(t, be, 7)
		for _, block := range []int{0, numBlocks / 2} {
			if err := be.Sync(block, numBlocks/2); err != nil {
				t.Fatalf("Sync(%d, %d): %v", block, numBlocks/2, err)
			}
			checkAll(t, be, 7)
		}
		if err := be.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}
