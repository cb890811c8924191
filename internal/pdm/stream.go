package pdm

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// streamChunkRecords bounds how many records every bulk path moves per
// backend batch: large enough that the I/O dominates and each Write to a
// socket amortizes its syscall, small enough that cancellation is prompt
// and a bulk path holds one 256 KiB arena rather than N records.
const streamChunkRecords = 1 << 14

// ErrInput marks a LoadFrom that failed on its input stream — a short or
// unreadable stream, or a canceled context — rather than on storage. The
// committed records are unchanged either way.
var ErrInput = errors.New("pdm: LoadFrom input stream")

// chunkStripes returns the whole-stripe chunking of the bulk paths: at
// least one stripe, at most streamChunkRecords records and at most the
// whole portion.
func (s *System) chunkStripes() int {
	cs := streamChunkRecords / (s.cfg.B * s.cfg.D)
	return min(max(cs, 1), s.cfg.Stripes())
}

// walk moves portion p's N records between the backend and memory a chunk
// of whole stripes at a time, in address order. Every bulk path is one
// walk: reads of the stored records, writes of the target portion, and
// FillRecords' in-place write of the stored records. Within a stripe the
// D blocks lie consecutively in address order, so each chunk reaches the
// backend as one batch of block transfers that alias the chunk's records,
// with nothing staged. When recs is nil the chunks pass through one pooled
// arena; otherwise recs holds all N records and each chunk aliases its
// span. Writes call fn to fill each chunk before it is stored, reads call
// fn with each chunk once it has arrived — through the backend's copy-free
// block views when it offers them. The first error from fn or from the
// backend ends the walk.
func (s *System) walk(kind IOKind, p portion, recs []Record, fn func(off int, chunk []Record) error) error {
	cfg := s.cfg
	stripeRecs := cfg.B * cfg.D
	cs := s.chunkStripes()
	arena := recs == nil
	if arena {
		recs = AcquireSlab(cs * stripeRecs)
		defer ReleaseSlab(recs)
	}
	var viewer BlockViewer
	if kind == IORead {
		viewer = s.viewer
	}
	xs := make([]RangeXfer, 0, cs*cfg.D)
	for stripe0 := 0; stripe0 < cfg.Stripes(); stripe0 += cs {
		off, span := stripe0*stripeRecs, min(cs, cfg.Stripes()-stripe0)*stripeRecs
		chunk := recs[:span]
		if !arena {
			chunk = recs[off : off+span]
		}
		if kind == IOWrite && fn != nil {
			if err := fn(off, chunk); err != nil {
				return err
			}
		}
		xs = xs[:0]
		for b := 0; b < len(chunk)/cfg.B; b++ {
			disk, block := b%cfg.D, s.physBlock(p, stripe0+b/cfg.D)
			data := chunk[b*cfg.B : (b+1)*cfg.B]
			if viewer != nil {
				if v, ok := viewer.BlockView(disk, block); ok {
					copy(data, v)
					continue
				}
			}
			xs = append(xs, RangeXfer{Disk: disk, Block: block, Data: data})
		}
		if len(xs) > 0 {
			if err := s.transfer(kind, xs); err != nil {
				return err
			}
		}
		if kind == IORead && fn != nil {
			if err := fn(off, chunk); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScanRecords hands the stored records to fn in address order, one chunk
// at a time: off is the address of chunk[0], and chunk is valid only until
// fn returns. Not counted as I/O. It holds one chunk of memory however
// large N is; verification scans run on it.
func (s *System) ScanRecords(fn func(off int, chunk []Record) error) error {
	return s.walk(IORead, s.source, nil, fn)
}

// FillRecords overwrites the stored records in place in address order, one
// chunk at a time: fn fills chunk with the records of addresses off
// onward. Not counted as I/O, and it does not commit, so it suits only
// storage that holds no committed records of its owner yet: a new
// dataset's canonical fill, or a released bmmcd job's storage filled for
// the next job. ReplaceRecords commits.
func (s *System) FillRecords(fn func(off int, chunk []Record) error) error {
	return s.walk(IOWrite, s.source, nil, fn)
}

// ReplaceRecords replaces the stored records with N records that fn
// produces in address order, one chunk at a time: fn fills chunk with the
// records of addresses off onward. Not counted as I/O. The chunks go into
// the target portion, which holds nothing live between runs, through one
// pooled arena, and after the last one ReplaceRecords commits, exactly as
// a pass does. So it holds one chunk of memory however large N is, and an
// error from fn or from storage leaves the committed records unchanged.
// Every loader that computes its records runs on it; LoadFrom reads them
// from a stream.
func (s *System) ReplaceRecords(fn func(off int, chunk []Record) error) error {
	if err := s.walk(IOWrite, s.portionOf(IOWrite), nil, fn); err != nil {
		return err
	}
	s.Commit()
	return nil
}

// LoadFrom replaces the stored records with exactly N records read from r
// in the wire format, returning the bytes consumed. Like LoadRecords it is
// not counted as parallel I/O — it models the data already residing on the
// disks — and it is the bulk path under Dataset.Load and every bmmcd
// upload. It is a ReplaceRecords whose chunks are read from the stream
// (on little-endian hosts the bytes land in the records with no
// per-record decode), and each chunk goes into the target portion as one
// backend batch aliasing the arena. After the last byte it commits, so an
// upload holds one chunk of memory, not N records.
//
// The reader is consumed exactly N*RecordBytes bytes; fewer is an error
// (io.ErrUnexpectedEOF). A short, unreadable or canceled stream fails with
// ErrInput in its chain and a storage fault with the backend's error;
// either way nothing is committed, so the stored records are unchanged.
func (s *System) LoadFrom(ctx context.Context, r io.Reader) (int64, error) {
	n := s.cfg.N
	var read int64
	err := s.ReplaceRecords(func(off int, chunk []Record) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: canceled at record %d/%d: %w", ErrInput, off, n, err)
		}
		got, err := ReadRecords(r, chunk)
		read += int64(got)
		if err != nil {
			return fmt.Errorf("%w: reading records %d..%d of %d: %w", ErrInput, off, off+len(chunk)-1, n, err)
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrInput) {
		err = fmt.Errorf("pdm: LoadFrom: %w", err)
	}
	return read, err
}

// DumpTo writes the stored records to w in address order in the wire
// format, returning the bytes written. Not counted as parallel I/O. It is
// the bulk path under Dataset.Dump and every bmmcd download: blocks are
// gathered a chunk at a time into a pooled arena (through the backend's
// copy-free block views when it offers them) and each chunk goes out in
// one Write, so no per-record encode runs anywhere on the path. ctx
// cancellation aborts between chunks (w may have received a prefix).
func (s *System) DumpTo(ctx context.Context, w io.Writer) (int64, error) {
	n := s.cfg.N
	var written int64
	err := s.walk(IORead, s.source, nil, func(off int, chunk []Record) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("canceled at record %d/%d: %w", off, n, err)
		}
		got, err := WriteRecords(w, chunk)
		written += int64(got)
		if err != nil {
			return fmt.Errorf("writing records %d..%d of %d: %w", off, off+len(chunk)-1, n, err)
		}
		return nil
	})
	if err != nil {
		return written, fmt.Errorf("pdm: DumpTo: %w", err)
	}
	return written, nil
}
