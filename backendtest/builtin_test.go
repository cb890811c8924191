package backendtest_test

import (
	"testing"
	"time"

	bmmc "repro"
	"repro/backendtest"
	"repro/backendtest/chaos"
)

// The three built-in backends certify against the same harness offered to
// third-party implementers, so the documented contract and the shipped
// behavior cannot drift apart.

func TestMemBackend(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) bmmc.Backend {
		return bmmc.MemBackend()
	})
}

func TestFileBackend(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) bmmc.Backend {
		return bmmc.FileBackend(t.TempDir())
	})
}

func TestShardedBackend(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) bmmc.Backend {
		return bmmc.ShardedBackend(t.TempDir(), t.TempDir())
	})
}

// The built-ins certify against the chaos harness too, so the adversarial
// wrappers offered to backend authors are known to compose with every
// shipped backend, each of which serves multi-block runs itself.

func TestChaosMemBackend(t *testing.T) {
	backendtest.RunChaos(t, func(t *testing.T) bmmc.Backend {
		return bmmc.MemBackend()
	})
}

func TestChaosFileBackend(t *testing.T) {
	backendtest.RunChaos(t, func(t *testing.T) bmmc.Backend {
		return bmmc.FileBackend(t.TempDir())
	})
}

func TestChaosShardedBackend(t *testing.T) {
	backendtest.RunChaos(t, func(t *testing.T) bmmc.Backend {
		return bmmc.ShardedBackend(t.TempDir(), t.TempDir())
	})
}

// Every chaos wrapper is a Backend too: disarmed of faults it must honor
// the base contract, runs and same-disk batches included, over each
// built-in backend.
func TestChaosWrappersConform(t *testing.T) {
	wrappers := map[string]func(bmmc.Backend) bmmc.Backend{
		"Flaky": func(be bmmc.Backend) bmmc.Backend {
			return chaos.Flaky(be, chaos.FlakyOptions{Seed: 1})
		},
		"Latency": func(be bmmc.Backend) bmmc.Backend {
			return chaos.Latency(be, chaos.LatencyOptions{Seed: 1, PerBlock: time.Microsecond, DiskFactors: []float64{3, 1}})
		},
		"TornRange": func(be bmmc.Backend) bmmc.Backend {
			return chaos.TornRange(be, chaos.TornOptions{Seed: 1})
		},
	}
	inners := map[string]func(t *testing.T) bmmc.Backend{
		"Mem":     func(t *testing.T) bmmc.Backend { return bmmc.MemBackend() },
		"File":    func(t *testing.T) bmmc.Backend { return bmmc.FileBackend(t.TempDir()) },
		"Sharded": func(t *testing.T) bmmc.Backend { return bmmc.ShardedBackend(t.TempDir(), t.TempDir()) },
	}
	for wname, wrap := range wrappers {
		for iname, inner := range inners {
			t.Run(wname+"/"+iname, func(t *testing.T) {
				backendtest.Run(t, func(t *testing.T) bmmc.Backend { return wrap(inner(t)) })
			})
		}
	}
}
