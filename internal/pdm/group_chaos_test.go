package pdm

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// Wave-accounting regression suite: a fault in wave k of a grouped parallel
// I/O must leave Stats equal to exactly the k completed waves — no
// double-count from the failed coalesced attempt, no lost count from the
// replay — whether the coalesced attempt or the replay's own wave faults.

// chaosGroupCfg gives 4 waves of D=4 single-block ops per group.
var chaosGroupCfg = Config{N: 512, D: 4, B: 4, M: 64}

// chaosGroup builds the striped 4-wave group: wave w reads/writes block w
// of every disk into frames w*D..w*D+D-1. Per-disk blocks 0..3 are
// consecutive, so the grouped path coalesces each disk into one 4-block
// range transfer.
func chaosGroup(cfg Config) [][]BlockIO {
	waves := cfg.StripesPerMemoryload()
	group := make([][]BlockIO, waves)
	for w := 0; w < waves; w++ {
		ios := make([]BlockIO, cfg.D)
		for d := 0; d < cfg.D; d++ {
			ios[d] = BlockIO{Disk: d, Block: w, Frame: w*cfg.D + d}
		}
		group[w] = ios
	}
	return group
}

// newChaosGroupSystem builds a System over be, loads canonical records with
// injection disarmed, and resets stats, so every counted operation
// afterwards belongs to the test's group.
func newChaosGroupSystem(t *testing.T, be Backend, disarm func(), arm func()) *System {
	t.Helper()
	sys, err := NewSystem(chaosGroupCfg, be)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	recs := make([]Record, chaosGroupCfg.N)
	for i := range recs {
		recs[i] = MakeRecord(uint64(i))
	}
	disarm()
	if err := sys.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	arm()
	sys.ResetStats()
	return sys
}

// assertWaves checks that the counters and trace reflect exactly k
// completed waves of the group.
func assertWaves(t *testing.T, sys *System, trace *Trace, kind IOKind, k int) {
	t.Helper()
	st := sys.Stats()
	d := chaosGroupCfg.D
	gotOps, gotBlocks := st.ParallelReads, st.BlocksRead
	if kind == IOWrite {
		gotOps, gotBlocks = st.ParallelWrites, st.BlocksWritten
	}
	if gotOps != k || gotBlocks != k*d {
		t.Fatalf("after fault in wave %d: %d parallel %vs over %d blocks, want %d over %d",
			k, gotOps, kind, gotBlocks, k, k*d)
	}
	if len(trace.Entries) != k {
		t.Fatalf("trace has %d entries, want %d", len(trace.Entries), k)
	}
	for w, e := range trace.Entries {
		if e.Kind != kind || !e.IsStriped(d) || e.IOs[0].Block != w {
			t.Fatalf("trace entry %d is not wave %d of the group: %s", w, w, e)
		}
	}
}

// TestChaosGroupFallbackWaveAccounting drives the wave-by-wave replay with
// a fault landing in each possible wave, reads and writes both. A torn-range
// adversary at rate 1 sits on top, so every group's first coalesced run
// tears: its prefix moves through the flaky backend as op 0 and the group
// replays wave by wave from op 1, whose one-block transfers never tear.
func TestChaosGroupFallbackWaveAccounting(t *testing.T) {
	waves := chaosGroupCfg.StripesPerMemoryload()
	d := chaosGroupCfg.D
	for _, kind := range []IOKind{IORead, IOWrite} {
		for k := 0; k < waves; k++ {
			fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: k*d + 2})
			fb.Disarm()
			sys := newChaosGroupSystem(t, NewTornRangeBackend(fb, TornOptions{Rate: 1}), fb.Disarm, func() {
				fb.Reset()
				fb.Arm()
			})
			trace := (&Trace{}).Attach(sys)
			group, buf := chaosGroup(chaosGroupCfg), sys.AcquireBuffer()
			var err error
			if kind == IORead {
				err = sys.ParallelReadGroup(group, buf)
			} else {
				err = sys.ParallelWriteGroup(group, buf)
			}
			if !errors.Is(err, ErrInjectedFault) || strings.Contains(err.Error(), "torn") {
				t.Fatalf("%v fault in wave %d: want the flaky backend's ErrInjectedFault, got %v", kind, k, err)
			}
			assertWaves(t, sys, trace, kind, k)
		}
	}
}

// TestChaosGroupGroupedWaveAccounting drives the grouped path: the
// coalesced range transfer faults, the group replays wave by wave, and
// the replay's own fault leaves exactly its completed waves
// counted. With FailAfterN and no recovery every replayed operation faults
// too, so zero waves complete — the grouped attempt must not have counted
// anything.
func TestChaosGroupGroupedWaveAccounting(t *testing.T) {
	for _, kind := range []IOKind{IORead, IOWrite} {
		for _, failAt := range []int{1, 2, 4} { // first range op, mid, last of D=4
			fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: failAt})
			fb.Disarm()
			sys := newChaosGroupSystem(t, fb, fb.Disarm, func() {
				fb.Reset()
				fb.Arm()
			})
			trace := (&Trace{}).Attach(sys)
			group, buf := chaosGroup(chaosGroupCfg), sys.AcquireBuffer()
			var err error
			if kind == IORead {
				err = sys.ParallelReadGroup(group, buf)
			} else {
				err = sys.ParallelWriteGroup(group, buf)
			}
			if !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("%v fault at range op %d: want wrapped ErrInjectedFault, got %v", kind, failAt, err)
			}
			assertWaves(t, sys, trace, kind, 0)
		}
	}
}

// TestChaosGroupTransientRangeFaultRecovers pins the fallback's upside: a
// fault that hits only the coalesced range transfer (transient window, or
// a torn range) spares the per-block replay, so the group completes with
// correct records and exactly one count per wave.
func TestChaosGroupTransientRangeFaultRecovers(t *testing.T) {
	t.Run("TransientFlaky", func(t *testing.T) {
		// Ops 0..3 are the D range transfers of the grouped read; op 1
		// faults, ops 4+ (the replay) all succeed.
		fb := NewFlakyBackend(MemBackend(), FlakyOptions{FailAfterN: 2, RecoverAfter: 1})
		fb.Disarm()
		sys := newChaosGroupSystem(t, fb, fb.Disarm, func() {
			fb.Reset()
			fb.Arm()
		})
		trace := (&Trace{}).Attach(sys)
		group, buf := chaosGroup(chaosGroupCfg), sys.AcquireBuffer()
		if err := sys.ParallelReadGroup(group, buf); err != nil {
			t.Fatalf("transient range fault did not recover: %v", err)
		}
		waves := chaosGroupCfg.StripesPerMemoryload()
		assertWaves(t, sys, trace, IORead, waves)
		// The frames hold the canonical records the waves addressed.
		for w := 0; w < waves; w++ {
			for d := 0; d < chaosGroupCfg.D; d++ {
				frame := buf.Frame(w*chaosGroupCfg.D + d)
				base := chaosGroupCfg.Addr(w, d, 0)
				for i, got := range frame {
					if want := MakeRecord(base + uint64(i)); got != want {
						t.Fatalf("wave %d disk %d record %d: got %+v, want %+v", w, d, i, got, want)
					}
				}
			}
		}
	})

	t.Run("TornWrite", func(t *testing.T) {
		// The first coalesced write range tears midway; the replay
		// re-sends every block whole from the unchanged frames.
		tb := NewTornRangeBackend(MemBackend(), TornOptions{Seed: 11, TearNth: 1})
		tb.Disarm()
		sys := newChaosGroupSystem(t, tb, tb.Disarm, func() {
			tb.Reset()
			tb.Arm()
		})
		// Fill the buffer with distinct content to write out.
		buf := sys.AcquireBuffer()
		mem := buf.Records()
		for i := range mem {
			mem[i] = Record{Key: 0xf00d0000 + uint64(i), Tag: uint64(i)}
		}
		want := append([]Record(nil), mem...)
		trace := (&Trace{}).Attach(sys)
		group := chaosGroup(chaosGroupCfg)
		if err := sys.ParallelWriteGroup(group, buf); err != nil {
			t.Fatalf("torn range write did not recover via fallback: %v", err)
		}
		waves := chaosGroupCfg.StripesPerMemoryload()
		assertWaves(t, sys, trace, IOWrite, waves)
		// Commit the written blocks, read them back and compare with what
		// the buffer held.
		for i := range mem {
			mem[i] = Record{}
		}
		tb.Disarm()
		sys.Commit()
		for w := 0; w < waves; w++ {
			if err := sys.ReadStripe(w, 0, buf); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < chaosGroupCfg.D; d++ {
				got := append([]Record(nil), buf.Frame(d)...)
				exp := want[(w*chaosGroupCfg.D+d)*chaosGroupCfg.B : (w*chaosGroupCfg.D+d+1)*chaosGroupCfg.B]
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("wave %d disk %d: written blocks corrupt after torn-range recovery", w, d)
				}
			}
		}
	})
}
