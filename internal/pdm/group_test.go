package pdm

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// The grouped parallel-I/O path promises to be indistinguishable from
// performing its waves one at a time, each a group of one, in everything the
// model can observe: records moved, Stats, and the trace. These tests run
// both side by side and require exact agreement, over the RAM and file
// backends, whose block views serve every read, and over RAM behind a
// disarmed FlakyBackend, which offers no views, so its reads are staged.

// groupStorages names the storages the group tests run on.
var groupStorages = []string{"mem", "file", "flaky"}

// newGroupSystem builds a system over the named storage, loads sequential
// records, and attaches a trace.
func newGroupSystem(t *testing.T, backend string, cfg Config) (*System, *Trace) {
	t.Helper()
	var be Backend
	switch backend {
	case "mem":
		be = MemBackend()
	case "file":
		be = FileBackend(t.TempDir())
	case "flaky":
		flaky := NewFlakyBackend(MemBackend(), FlakyOptions{})
		flaky.Disarm()
		be = flaky
	default:
		t.Fatalf("unknown storage %q", backend)
	}
	sys, err := NewSystem(cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.LoadRecords(sequentialRecords(cfg.N)); err != nil {
		t.Fatal(err)
	}
	tr := new(Trace).Attach(sys)
	return sys, tr
}

// groupShapes returns the operation groups the tests exercise, for the
// testConfig geometry (D=4, 32 blocks per disk, 16 frames).
func groupShapes(cfg Config) map[string][][]BlockIO {
	// striped: wave w reads stripe w, so each disk sees consecutive physical
	// blocks 0..3 — one maximal run per disk, the shape the coalescer is for.
	striped := make([][]BlockIO, cfg.FramesPerDisk())
	for w := range striped {
		for d := 0; d < cfg.D; d++ {
			striped[w] = append(striped[w], BlockIO{Disk: d, Block: w, Frame: w*cfg.D + d})
		}
	}
	// scattered: irregular blocks mixing multi-block runs (out of wave
	// order), singletons, and gaps, different on every disk.
	blocks := [][]int{
		{5, 0, 8, 3},
		{6, 10, 2, 4},
		{7, 11, 25, 30},
		{20, 31, 14, 12},
	}
	scattered := make([][]BlockIO, len(blocks))
	for w, row := range blocks {
		for d, blk := range row {
			scattered[w] = append(scattered[w], BlockIO{Disk: d, Block: blk, Frame: w*cfg.D + d})
		}
	}
	// reused-frame: stripes 0 and 1, the second landing on half the
	// first's frames, so those frames must end up holding stripe 1.
	reused := [][]BlockIO{{}, {}}
	for d := 0; d < cfg.D; d++ {
		reused[0] = append(reused[0], BlockIO{Disk: d, Block: 0, Frame: d})
		reused[1] = append(reused[1], BlockIO{Disk: d, Block: 1, Frame: cfg.D/2 + d})
	}
	return map[string][][]BlockIO{"striped": striped, "scattered": scattered, "reused-frame": reused}
}

// matchesWaveByWave runs group once whole and once wave by wave, each on
// a fresh system over backend, and requires identical buffers, records in
// both portions, Stats and traces.
func matchesWaveByWave(t *testing.T, backend string, group [][]BlockIO, write bool) {
	t.Helper()
	cfg := testConfig()
	sysG, trG := newGroupSystem(t, backend, cfg)
	sysL, trL := newGroupSystem(t, backend, cfg)
	bufG, bufL := sysG.AcquireBuffer(), sysL.AcquireBuffer()
	for i := range bufG.Records() {
		bufG.Records()[i] = MakeRecord(uint64(300000 + i))
		bufL.Records()[i] = MakeRecord(uint64(300000 + i))
	}
	run := (*System).ParallelReadGroup
	if write {
		run = (*System).ParallelWriteGroup
	}
	if err := run(sysG, group, bufG); err != nil {
		t.Fatal(err)
	}
	for w := range group {
		if err := run(sysL, group[w:w+1], bufL); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(bufG.Records(), bufL.Records()) {
		t.Error("buffers diverge")
	}
	for _, p := range []portion{0, 1} {
		recsG, recsL := make([]Record, cfg.N), make([]Record, cfg.N)
		if err := sysG.walk(IORead, p, recsG, nil); err != nil {
			t.Fatal(err)
		}
		if err := sysL.walk(IORead, p, recsL, nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recsG, recsL) {
			t.Errorf("portion %d records diverge", p)
		}
	}
	if g, l := sysG.Stats(), sysL.Stats(); !reflect.DeepEqual(g, l) {
		t.Errorf("stats diverge: grouped %+v, wave by wave %+v", g, l)
	}
	if !reflect.DeepEqual(trG.Entries, trL.Entries) {
		t.Errorf("traces diverge:\ngrouped:\n%s\nwave by wave:\n%s", trG, trL)
	}
}

func TestParallelReadGroupMatchesLoop(t *testing.T) {
	for _, backend := range groupStorages {
		for shape, group := range groupShapes(testConfig()) {
			t.Run(backend+"/"+shape, func(t *testing.T) { matchesWaveByWave(t, backend, group, false) })
		}
	}
}

func TestParallelWriteGroupMatchesLoop(t *testing.T) {
	for _, backend := range groupStorages {
		for shape, group := range groupShapes(testConfig()) {
			t.Run(backend+"/"+shape, func(t *testing.T) { matchesWaveByWave(t, backend, group, true) })
		}
	}
}

// TestParallelReadGroupDuplicateFrameFallsBack: a frame reused across the
// group's waves makes the outcome order-dependent, so a staged group (on
// storage without block views) must fall back to the loop — the later wave
// wins the frame — while still counting each wave.
func TestParallelReadGroupDuplicateFrameFallsBack(t *testing.T) {
	cfg := testConfig()
	group := [][]BlockIO{
		{{Disk: 0, Block: 1, Frame: 0}},
		{{Disk: 0, Block: 2, Frame: 0}},
	}
	sys, _ := newGroupSystem(t, "flaky", cfg)
	buf := sys.AcquireBuffer()
	if err := sys.ParallelReadGroup(group, buf); err != nil {
		t.Fatal(err)
	}
	// The reference: frame 0 holds block 2 of disk 0, read on its own.
	ref, _ := newGroupSystem(t, "mem", cfg)
	want := ref.AcquireBuffer()
	if err := ref.ParallelReadGroup([][]BlockIO{{{Disk: 0, Block: 2, Frame: 0}}}, want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(buf.Frame(0), want.Frame(0)) {
		t.Error("frame 0 does not hold the last wave's block")
	}
	if st := sys.Stats(); st.ParallelReads != 2 || st.BlocksRead != 2 {
		t.Errorf("fallback miscounted: %+v", st)
	}
}

// TestParallelWriteGroupDuplicateBlockFallsBack: two waves writing the same
// (disk, block) must resolve in wave order, the last write winning.
func TestParallelWriteGroupDuplicateBlockFallsBack(t *testing.T) {
	cfg := testConfig()
	group := [][]BlockIO{
		{{Disk: 1, Block: 3, Frame: 0}},
		{{Disk: 1, Block: 3, Frame: 1}},
	}
	sys, _ := newGroupSystem(t, "mem", cfg)
	buf := sys.AcquireBuffer()
	for i := range buf.Records() {
		buf.Records()[i] = MakeRecord(uint64(200000 + i))
	}
	if err := sys.ParallelWriteGroup(group, buf); err != nil {
		t.Fatal(err)
	}
	sys.Commit()
	got := sys.AcquireBuffer()
	if err := sys.ParallelReadGroup([][]BlockIO{{{Disk: 1, Block: 3, Frame: 0}}}, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Frame(0), buf.Frame(1)) {
		t.Error("block does not hold the last wave's frame")
	}
	if st := sys.Stats(); st.ParallelWrites != 2 || st.BlocksWritten != 2 {
		t.Errorf("fallback miscounted: %+v", st)
	}
}

// fuzzGroup decodes data into a valid group for cfg: up to 16 waves, each
// on a rotating set of 1..D disks with distinct frames. Per disk, a block
// repeats the disk's previous block, extends a run, or jumps past a gap,
// and frames are free to recur across waves — every shape the coalescer
// must either merge or hand to the wave-by-wave replay.
func fuzzGroup(cfg Config, data []byte) [][]BlockIO {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	last := make([]int, cfg.D)
	group := make([][]BlockIO, 1+next()%16)
	for w := range group {
		h := next()
		n, first := 1+h%cfg.D, h/cfg.D%cfg.D
		used := make([]bool, cfg.Frames())
		for i := 0; i < n; i++ {
			disk, step := (first+i)%cfg.D, next()
			switch step % 4 {
			case 0: // the disk's previous block again
			case 1:
				last[disk]++ // extend a run
			default:
				last[disk] += 2 + step/4 // skip a gap
			}
			last[disk] %= cfg.BlocksPerDisk()
			f := next() % cfg.Frames()
			for used[f] {
				f = (f + 1) % cfg.Frames()
			}
			used[f] = true
			group[w] = append(group[w], BlockIO{Disk: disk, Block: last[disk], Frame: f})
		}
	}
	return group
}

// FuzzParallelGroupMatchesLoop: for any valid group, running it as one
// group and running it wave by wave leave identical records in both
// portions and in the buffer, identical Stats, and identical traces. A
// group that does not run on file storage runs on both RAM storages, so
// every input meets reads served from views and staged reads.
func FuzzParallelGroupMatchesLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, write, file bool) {
		group := fuzzGroup(testConfig(), data)
		if file {
			matchesWaveByWave(t, "file", group, write)
			return
		}
		matchesWaveByWave(t, "mem", group, write)
		matchesWaveByWave(t, "flaky", group, write)
	})
}

// viewCounter is RAM storage that offers its block views and counts the
// ReadBlocks batches it is asked for.
type viewCounter struct {
	Backend
	reads atomic.Int64
}

func (v *viewCounter) ReadBlocks(xfers []RangeXfer) error {
	v.reads.Add(1)
	return v.Backend.ReadBlocks(xfers)
}

func (v *viewCounter) BlockView(disk, block int) ([]Record, bool) {
	return v.Backend.(BlockViewer).BlockView(disk, block)
}

// TestViewReadsSkipReadBlocks: a backend that offers a view of every block
// is never asked to read one, whatever the group's shape, and the frames
// hold what the staged route reads.
func TestViewReadsSkipReadBlocks(t *testing.T) {
	cfg := testConfig()
	for shape, group := range groupShapes(cfg) {
		t.Run(shape, func(t *testing.T) {
			be := &viewCounter{Backend: MemBackend()}
			sys, err := NewSystem(cfg, be)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if err := sys.LoadRecords(sequentialRecords(cfg.N)); err != nil {
				t.Fatal(err)
			}
			staged, _ := newGroupSystem(t, "flaky", cfg)
			got, want := sys.AcquireBuffer(), staged.AcquireBuffer()
			if err := sys.ParallelReadGroup(group, got); err != nil {
				t.Fatal(err)
			}
			if err := staged.ParallelReadGroup(group, want); err != nil {
				t.Fatal(err)
			}
			if n := be.reads.Load(); n != 0 {
				t.Errorf("%d ReadBlocks calls, want none", n)
			}
			if !reflect.DeepEqual(got.Records(), want.Records()) {
				t.Error("frames diverge from the staged route's")
			}
			if g, w := sys.Stats(), staged.Stats(); !reflect.DeepEqual(g, w) {
				t.Errorf("stats diverge: views %+v, staged %+v", g, w)
			}
		})
	}
}
