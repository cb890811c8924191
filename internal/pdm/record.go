package pdm

import "encoding/binary"

// RecordBytes is the on-disk size of one record in the file-backed disks.
const RecordBytes = 16

// Record is the unit of data moved by the disk system. Key conventionally
// holds the record's original (source) address so that any permutation run
// can be verified after the fact; Tag is free payload (the verification
// helpers store a hash of Key there to detect corruption separately from
// misplacement).
type Record struct {
	Key uint64
	Tag uint64
}

// TagFor returns the integrity tag the library stores alongside a key: a
// cheap 64-bit mix (splitmix64 finalizer) that makes payload corruption
// distinguishable from mere misplacement.
func TagFor(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MakeRecord returns the canonical record for source address key.
func MakeRecord(key uint64) Record {
	return Record{Key: key, Tag: TagFor(key)}
}

// CheckIntegrity reports whether the record's tag matches its key.
func (r Record) CheckIntegrity() bool { return r.Tag == TagFor(r.Key) }

// Encode writes the record into dst (at least RecordBytes long),
// little-endian — the wire format of the file backends and of
// Dataset.Load/Dump.
func (r Record) Encode(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:8], r.Key)
	binary.LittleEndian.PutUint64(dst[8:16], r.Tag)
}

// DecodeRecord reads a record from RecordBytes little-endian bytes.
func DecodeRecord(src []byte) Record {
	return Record{
		Key: binary.LittleEndian.Uint64(src[0:8]),
		Tag: binary.LittleEndian.Uint64(src[8:16]),
	}
}
