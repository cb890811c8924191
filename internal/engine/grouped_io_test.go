package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pdm"
	"repro/internal/perm"
)

// The runner hands whole memoryloads of operations to the grouped parallel
// I/O path; these tests pin it against the one-operation-at-a-time path,
// requiring identical records, Stats, and traces for every pass kind on
// both the RAM and file backends. The ungrouped side runs over a backend
// that tears every multi-block transfer, so the System serves each
// coalesced group through its wave-by-wave replay. Sequential options keep
// the trace order deterministic.

// runConformance executes fn on a freshly loaded system and returns the
// final record layout, the model stats, and the full parallel-I/O trace.
func runConformance(t *testing.T, cfg pdm.Config, backend string, ungrouped bool, fn func(*pdm.System) error) ([]pdm.Record, pdm.Stats, []pdm.TraceEntry) {
	t.Helper()
	be := pdm.MemBackend()
	if backend == "file" {
		be = pdm.FileBackend(t.TempDir())
	}
	if ungrouped {
		be = pdm.NewTornRangeBackend(be, pdm.TornOptions{Rate: 1})
	}
	sys, err := pdm.NewSystem(cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := LoadSequential(sys); err != nil {
		t.Fatal(err)
	}
	tr := new(pdm.Trace).Attach(sys)
	if err := fn(sys); err != nil {
		t.Fatal(err)
	}
	recs, err := sys.DumpRecords(sys.Source())
	if err != nil {
		t.Fatal(err)
	}
	return recs, sys.Stats(), tr.Entries
}

func TestGroupedIOMatchesUngrouped(t *testing.T) {
	cfg := pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}
	opt := Options{Pipeline: false}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	mld := randomMLD(rng, cfg.LgN(), cfg.LgB(), cfg.LgM())
	invMLD := randomMLD(rng, cfg.LgN(), cfg.LgB(), cfg.LgM()).Inverse()
	bitrev := perm.BitReversal(cfg.LgN())
	cases := map[string]func(*pdm.System) error{
		"bmmc-bitrev": func(s *pdm.System) error {
			_, err := runFactored(ctx, s, bitrev, opt)
			return err
		},
		"mrc": func(s *pdm.System) error {
			return RunMRCPass(ctx, s, perm.GrayCode(cfg.LgN()), opt)
		},
		"mld": func(s *pdm.System) error {
			return RunMLDPass(ctx, s, mld, opt)
		},
		"mld-inverse": func(s *pdm.System) error {
			return RunMLDInversePass(ctx, s, invMLD, opt)
		},
	}
	for _, backend := range []string{"mem", "file"} {
		for name, fn := range cases {
			t.Run(backend+"/"+name, func(t *testing.T) {
				recsG, statsG, traceG := runConformance(t, cfg, backend, false, fn)
				recsU, statsU, traceU := runConformance(t, cfg, backend, true, fn)
				if !reflect.DeepEqual(recsG, recsU) {
					t.Error("grouped I/O produced a different record layout")
				}
				if !reflect.DeepEqual(statsG, statsU) {
					t.Errorf("stats diverge: grouped %+v, ungrouped %+v", statsG, statsU)
				}
				if !reflect.DeepEqual(traceG, traceU) {
					t.Error("grouped I/O produced a different parallel-I/O trace")
				}
			})
		}
	}
}
