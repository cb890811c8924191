package pdm

// Buffer is the model's memory: M records organized as M/B frames. A
// System owns none; whoever runs acquires one and holds it only while it
// runs, so an idle dataset pins no records.
// Holding several lets an engine keep more than one memoryload in flight
// at once — e.g. prefetching memoryload k+1 while memoryload k is being
// permuted — without perturbing the model's accounting: every transfer
// between a Buffer and the disks is a counted parallel I/O under the
// one-block-per-disk rule. Buffers are plain host memory: acquiring one is
// free and does not touch the simulated disks or the I/O counters.
type Buffer struct {
	b    int // records per frame (block size B)
	recs []Record
	xbuf []RangeXfer // per-buffer scratch for one-wave transfer batches
}

// AcquireBuffer returns a fresh zeroed memoryload-sized buffer (M records,
// M/B frames) compatible with the system's geometry.
func (s *System) AcquireBuffer() *Buffer {
	return &Buffer{b: s.cfg.B, recs: make([]Record, s.cfg.M)}
}

// Records returns the buffer's backing slice of M records; frame f occupies
// Records()[f*B : (f+1)*B].
func (b *Buffer) Records() []Record { return b.recs }

// Frames returns the number of B-record frames in the buffer (M/B).
func (b *Buffer) Frames() int { return len(b.recs) / b.b }

// Frame returns the B-record slice backing frame f.
func (b *Buffer) Frame(f int) []Record {
	return b.recs[f*b.b : (f+1)*b.b]
}
