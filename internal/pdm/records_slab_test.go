package pdm

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
)

func randomRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: rng.Uint64(), Tag: rng.Uint64()}
	}
	return recs
}

// TestRecordsToBytesMatchesEncode pins the slab view to the wire format:
// whatever RecordsToBytes returns must be byte-identical to encoding each
// record with Record.Encode. This is the contract that lets the file
// backend write slabs directly and stay compatible with files written by
// the portable per-record path (and by earlier releases).
func TestRecordsToBytesMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(510))
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		recs := randomRecords(rng, n)
		got := RecordsToBytes(recs)
		want := make([]byte, n*RecordBytes)
		for i, r := range recs {
			r.Encode(want[i*RecordBytes:])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: RecordsToBytes diverges from per-record Encode", n)
		}
	}
}

// TestBytesToRecordsMatchesDecode: the inverse view agrees with per-record
// DecodeRecord, for both aligned slabs (view path on little-endian hosts)
// and deliberately misaligned ones (copy fallback).
func TestBytesToRecordsMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(511))
	raw := make([]byte, 100*RecordBytes+1)
	rng.Read(raw)
	for _, b := range [][]byte{raw[:100*RecordBytes], raw[1 : 99*RecordBytes+1]} {
		got := BytesToRecords(b)
		n := len(b) / RecordBytes
		if len(got) != n {
			t.Fatalf("BytesToRecords returned %d records, want %d", len(got), n)
		}
		for i := 0; i < n; i++ {
			if want := DecodeRecord(b[i*RecordBytes:]); got[i] != want {
				t.Fatalf("record %d: got %+v, want %+v", i, got[i], want)
			}
		}
	}
}

func TestBytesToRecordsPartialRecordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BytesToRecords accepted a partial record")
		}
	}()
	BytesToRecords(make([]byte, RecordBytes+1))
}

// TestSlabRoundTrip: records -> bytes -> records is the identity whichever
// build (view or portable) is active.
func TestSlabRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	recs := randomRecords(rng, 257)
	back := BytesToRecords(RecordsToBytes(recs))
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("round trip diverges at %d", i)
		}
	}
}

// TestReadWriteRecords: the stream primitives move the same bytes as the
// slab views, count them accurately, and surface short reads as
// io.ErrUnexpectedEOF.
func TestReadWriteRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(513))
	recs := randomRecords(rng, 300)
	var buf bytes.Buffer
	n, err := WriteRecords(&buf, recs)
	if err != nil || n != len(recs)*RecordBytes {
		t.Fatalf("WriteRecords = (%d, %v), want (%d, nil)", n, err, len(recs)*RecordBytes)
	}
	if !bytes.Equal(buf.Bytes(), RecordsToBytes(recs)) {
		t.Fatal("WriteRecords bytes diverge from the slab view")
	}

	got := make([]Record, len(recs))
	n, err = ReadRecords(bytes.NewReader(buf.Bytes()), got)
	if err != nil || n != len(recs)*RecordBytes {
		t.Fatalf("ReadRecords = (%d, %v), want (%d, nil)", n, err, len(recs)*RecordBytes)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("ReadRecords diverges at %d", i)
		}
	}

	short := bytes.NewReader(buf.Bytes()[:len(recs)*RecordBytes-5])
	if _, err := ReadRecords(short, got); err != io.ErrUnexpectedEOF {
		t.Fatalf("short ReadRecords error = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestSlabPoolReuse: a released slab of the same size comes back from the
// pool with its previous contents cleared from the caller's point of view
// being irrelevant — only length and capacity are guaranteed.
func TestSlabPoolReuse(t *testing.T) {
	for _, n := range []int{1, 64, 4096} {
		s := AcquireSlab(n)
		if len(s) != n {
			t.Fatalf("AcquireSlab(%d) returned %d records", n, len(s))
		}
		ReleaseSlab(s)
	}
}

// TestSlabPoolConcurrent hammers the arena pool from many goroutines with
// mixed sizes, for the race detector: the per-size pools must hand each
// slab to at most one goroutine at a time.
func TestSlabPoolConcurrent(t *testing.T) {
	sizes := []int{64, 64, 512, 512, 4096}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				n := sizes[(g+iter)%len(sizes)]
				s := AcquireSlab(n)
				for i := range s {
					s[i] = Record{Key: uint64(g), Tag: uint64(iter)}
				}
				for i := range s {
					if s[i].Key != uint64(g) {
						t.Errorf("slab shared between goroutines")
						break
					}
				}
				ReleaseSlab(s)
			}
		}(g)
	}
	wg.Wait()
}
