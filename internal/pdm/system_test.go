package pdm

import (
	"math/rand"
	"runtime"
	"testing"
)

func testConfig() Config {
	return Config{N: 1 << 10, D: 4, B: 8, M: 1 << 7} // n=10 d=2 b=3 m=7
}

func sequentialRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = MakeRecord(uint64(i))
	}
	return recs
}

func TestLoadDumpRoundTrip(t *testing.T) {
	cfg := testConfig()
	s, err := NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := sequentialRecords(cfg.N)
	if err := s.LoadRecords(PortionA, recs); err != nil {
		t.Fatal(err)
	}
	got, err := s.DumpRecords(PortionA)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != recs[i] {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	if s.Stats().ParallelIOs() != 0 {
		t.Errorf("Load/Dump counted as I/O: %v", s.Stats())
	}
}

func TestRecordAt(t *testing.T) {
	cfg := testConfig()
	s, _ := NewMemSystem(cfg)
	defer s.Close()
	if err := s.LoadRecords(PortionA, sequentialRecords(cfg.N)); err != nil {
		t.Fatal(err)
	}
	for _, x := range []uint64{0, 1, 77, 512, 1023} {
		r, err := s.RecordAt(PortionA, x)
		if err != nil {
			t.Fatal(err)
		}
		if r.Key != x {
			t.Errorf("RecordAt(%d).Key = %d", x, r.Key)
		}
	}
}

func TestParallelReadWriteCounting(t *testing.T) {
	cfg := testConfig()
	s, _ := NewMemSystem(cfg)
	defer s.Close()
	if err := s.LoadRecords(PortionA, sequentialRecords(cfg.N)); err != nil {
		t.Fatal(err)
	}
	buf := s.AcquireBuffer()
	// Read one block from two different disks: one parallel I/O.
	ios := []BlockIO{{Disk: 0, Block: 3, Frame: 0}, {Disk: 2, Block: 7, Frame: 1}}
	if err := s.ParallelReadGroup(PortionA, [][]BlockIO{ios}, buf); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ParallelReads != 1 || st.BlocksRead != 2 {
		t.Fatalf("stats after read: %v", st)
	}
	// The frame contents must match the addresses of (disk, block).
	for _, io := range ios {
		frame := buf.Frame(io.Frame)
		for off, r := range frame {
			want := cfg.BlockAddr(io.Disk, io.Block, off)
			if r.Key != want {
				t.Fatalf("frame %d offset %d key = %d, want %d", io.Frame, off, r.Key, want)
			}
		}
	}
	// Write both frames to portion B and read them back.
	wr := []BlockIO{{Disk: 1, Block: 0, Frame: 0}, {Disk: 3, Block: 5, Frame: 1}}
	if err := s.ParallelWriteGroup(PortionB, [][]BlockIO{wr}, buf); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.ParallelWrites != 1 || st.BlocksWritten != 2 {
		t.Fatalf("stats after write: %v", st)
	}
	r, err := s.RecordAt(PortionB, cfg.BlockAddr(1, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.BlockAddr(0, 3, 4); r.Key != uint64(want) {
		t.Fatalf("portion B record key = %d, want %d", r.Key, want)
	}
}

func TestModelRuleEnforcement(t *testing.T) {
	cfg := testConfig()
	s, _ := NewMemSystem(cfg)
	defer s.Close()
	buf := s.AcquireBuffer()
	cases := []struct {
		name string
		ios  []BlockIO
	}{
		{"empty", nil},
		{"same disk twice", []BlockIO{{Disk: 1, Block: 0, Frame: 0}, {Disk: 1, Block: 1, Frame: 1}}},
		{"disk out of range", []BlockIO{{Disk: 4, Block: 0, Frame: 0}}},
		{"negative disk", []BlockIO{{Disk: -1, Block: 0, Frame: 0}}},
		{"block out of range", []BlockIO{{Disk: 0, Block: cfg.BlocksPerDisk(), Frame: 0}}},
		{"frame out of range", []BlockIO{{Disk: 0, Block: 0, Frame: cfg.Frames()}}},
		{"same frame twice", []BlockIO{{Disk: 0, Block: 0, Frame: 2}, {Disk: 1, Block: 0, Frame: 2}}},
	}
	for _, c := range cases {
		if err := s.ParallelReadGroup(PortionA, [][]BlockIO{c.ios}, buf); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if err := s.ParallelWriteGroup(PortionA, [][]BlockIO{c.ios}, buf); err == nil {
			t.Errorf("%s: write accepted", c.name)
		}
	}
	if got := s.Stats().ParallelIOs(); got != 0 {
		t.Errorf("failed operations were counted: %d", got)
	}
	// More blocks than D in one operation.
	many := make([]BlockIO, cfg.D+1)
	for i := range many {
		many[i] = BlockIO{Disk: i % cfg.D, Block: 0, Frame: i}
	}
	if err := s.ParallelReadGroup(PortionA, [][]BlockIO{many}, buf); err == nil {
		t.Error("oversized parallel I/O accepted")
	}
}

func TestStripedIO(t *testing.T) {
	cfg := testConfig()
	s, _ := NewMemSystem(cfg)
	defer s.Close()
	if err := s.LoadRecords(PortionA, sequentialRecords(cfg.N)); err != nil {
		t.Fatal(err)
	}
	buf := s.AcquireBuffer()
	if err := s.ReadStripe(PortionA, 2, 0, buf); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ParallelReads != 1 || st.BlocksRead != cfg.D {
		t.Fatalf("striped read stats: %v", st)
	}
	// The buffer now holds stripe 2: addresses 2*B*D .. 3*B*D-1 in order.
	base := uint64(2 * cfg.B * cfg.D)
	for i, r := range buf.Records()[:cfg.B*cfg.D] {
		if r.Key != base+uint64(i) {
			t.Fatalf("mem[%d].Key = %d, want %d", i, r.Key, base+uint64(i))
		}
	}
	if err := s.WriteStripe(PortionB, 0, 0, buf); err != nil {
		t.Fatal(err)
	}
	r, _ := s.RecordAt(PortionB, 5)
	if r.Key != base+5 {
		t.Fatalf("striped write misplaced records: key %d", r.Key)
	}
}

func TestSwapPortions(t *testing.T) {
	s, _ := NewMemSystem(testConfig())
	defer s.Close()
	if s.Source() != PortionA || s.Target() != PortionB {
		t.Fatal("initial portions wrong")
	}
	s.SwapPortions()
	if s.Source() != PortionB || s.Target() != PortionA {
		t.Fatal("swap failed")
	}
}

func TestPerDiskCounters(t *testing.T) {
	cfg := testConfig()
	s, _ := NewMemSystem(cfg)
	defer s.Close()
	_ = s.LoadRecords(PortionA, sequentialRecords(cfg.N))
	buf := s.AcquireBuffer()
	for i := 0; i < 3; i++ {
		if err := s.ParallelReadGroup(PortionA, [][]BlockIO{{{Disk: 1, Block: i, Frame: 0}}}, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PerDiskReads[1] != 3 || st.PerDiskReads[0] != 0 {
		t.Fatalf("per-disk read counts: %v", st.PerDiskReads)
	}
	s.ResetStats()
	if s.Stats().ParallelIOs() != 0 || s.Stats().PerDiskReads[1] != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestFileDiskMatchesMemDisk(t *testing.T) {
	cfg := Config{N: 1 << 8, D: 2, B: 4, M: 1 << 5}
	dir := t.TempDir()
	fs, err := NewSystem(cfg, FileBackend(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms, _ := NewMemSystem(cfg)
	defer ms.Close()

	recs := sequentialRecords(cfg.N)
	rand.New(rand.NewSource(7)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	if err := fs.LoadRecords(PortionA, recs); err != nil {
		t.Fatal(err)
	}
	if err := ms.LoadRecords(PortionA, recs); err != nil {
		t.Fatal(err)
	}
	// Run the same I/O schedule on both and compare portions. Each system
	// moves blocks through its own buffer, so a bad read on one side cannot
	// be masked by the other side's good one.
	fbuf, mbuf := fs.AcquireBuffer(), ms.AcquireBuffer()
	rng := rand.New(rand.NewSource(8))
	for op := 0; op < 50; op++ {
		disk := rng.Intn(cfg.D)
		block := rng.Intn(cfg.BlocksPerDisk())
		ios := [][]BlockIO{{{Disk: disk, Block: block, Frame: 0}}}
		if err := fs.ParallelReadGroup(PortionA, ios, fbuf); err != nil {
			t.Fatal(err)
		}
		if err := ms.ParallelReadGroup(PortionA, ios, mbuf); err != nil {
			t.Fatal(err)
		}
		dst := [][]BlockIO{{{Disk: rng.Intn(cfg.D), Block: rng.Intn(cfg.BlocksPerDisk()), Frame: 0}}}
		if err := fs.ParallelWriteGroup(PortionB, dst, fbuf); err != nil {
			t.Fatal(err)
		}
		if err := ms.ParallelWriteGroup(PortionB, dst, mbuf); err != nil {
			t.Fatal(err)
		}
	}
	fd, err := fs.DumpRecords(PortionB)
	if err != nil {
		t.Fatal(err)
	}
	md, _ := ms.DumpRecords(PortionB)
	for i := range fd {
		if fd[i] != md[i] {
			t.Fatalf("file/mem divergence at %d: %+v vs %+v", i, fd[i], md[i])
		}
	}
	if fs.Stats().ParallelIOs() != ms.Stats().ParallelIOs() {
		t.Fatal("I/O counts diverge between backends")
	}
}

func TestRecordIntegrity(t *testing.T) {
	r := MakeRecord(42)
	if !r.CheckIntegrity() {
		t.Fatal("fresh record fails integrity")
	}
	r.Tag++
	if r.CheckIntegrity() {
		t.Fatal("corrupted record passes integrity")
	}
}

func TestRecordEncodeDecode(t *testing.T) {
	var buf [RecordBytes]byte
	r := Record{Key: 0xdeadbeefcafe, Tag: 0x0123456789abcdef}
	r.Encode(buf[:])
	if got := DecodeRecord(buf[:]); got != r {
		t.Fatalf("encode/decode roundtrip: %+v", got)
	}
}

// nullBackend stores nothing: its Open allocates no disks, so a System
// built over it allocates only what NewSystem itself does.
type nullBackend struct{}

func (nullBackend) Open(disks, blocksPerDisk, blockRecords int) error { return nil }
func (nullBackend) ReadBlocks([]RangeXfer) error                      { return nil }
func (nullBackend) WriteBlocks([]RangeXfer) error                     { return nil }
func (nullBackend) Sync() error                                       { return nil }
func (nullBackend) Close() error                                      { return nil }

// TestNewSystemAllocatesNoMemoryload: a System owns no memoryload, so
// opening datasets that never run pins no M-record buffers. Eight open
// Systems at M = 2^16 allocate less than one memoryload (1 MiB) in total.
func TestNewSystemAllocatesNoMemoryload(t *testing.T) {
	cfg := Config{N: 1 << 20, D: 8, B: 64, M: 1 << 16}
	systems := make([]*System, 0, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for len(systems) < cap(systems) {
		s, err := NewSystem(cfg, nullBackend{})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, s)
	}
	runtime.ReadMemStats(&after)
	memoryload := uint64(cfg.M * RecordBytes)
	if got := after.TotalAlloc - before.TotalAlloc; got >= memoryload {
		t.Errorf("%d open Systems allocated %d bytes, want < one memoryload (%d)", len(systems), got, memoryload)
	}
	for _, s := range systems {
		s.Close()
	}
}
