// Package chaos wraps any bmmc.Backend in deterministic storage
// adversaries: seeded per-transfer fault injection (Flaky), simulated
// per-disk service time with skew and jitter (Latency), torn multi-block
// transfers that move only a prefix before failing (TornRange), and a
// simulated power cut that loses every write no Sync covered (PowerLoss).
// Third-party backend authors compose them around their own
// implementation and drive the result through backendtest.RunChaos — or
// through a Dataset (bmmc.WithBackend) and an Engine — to certify that
// faults surface cleanly and that zero-fault wrappers are byte-transparent.
//
// Every injected failure wraps ErrInjectedFault. Determinism contract:
// probability-driven decisions (Rate, Jitter, tear points, the blocks a
// PowerLoss tear keeps) are pure hashes of (seed, disk, block, visit), so
// the set of faulted operations is independent of goroutine interleaving;
// count-driven triggers (FailAfterN, TearNth) use the wrapper-global
// operation ordinal, so they reproduce only when one goroutine issues
// every transfer in order: direct Backend calls, as backendtest.RunChaos
// makes them, and the engine's own sequential test mode, but not an Engine
// pass, which reads ahead and writes behind on goroutines of their own.
// The fault and latency wrappers start armed; Disarm/Arm bracket setup
// I/O that should run clean and uncounted.
package chaos

import (
	"time"

	bmmc "repro"
	"repro/internal/pdm"
)

// ErrInjectedFault is the sentinel wrapped by every injected failure.
var ErrInjectedFault = pdm.ErrInjectedFault

// Core types, re-exported from the disk model so wrapper behavior in
// library tests and third-party tests is one implementation.
type (
	// Op is one logged backend operation: ordinal, kind, location,
	// block count, visit number, and the fault injected into it (if any).
	Op = pdm.ChaosOp
	// Log collects the Ops a wrapper performed, in completion order.
	Log = pdm.ChaosLog
	// FaultMode restricts injection to reads, writes, or both.
	FaultMode = pdm.FaultMode

	// FlakyOptions configures Flaky: Seed and Rate for hash-driven
	// faults, FailAfterN (1-based; 0 disables) and RecoverAfter for a
	// deterministic count window, Mode, and an optional shared Log.
	FlakyOptions = pdm.FlakyOptions
	// LatencyOptions configures Latency: Seed, PerBlock service time,
	// Jitter fraction, an optional Dist from the distribution catalog,
	// per-disk skew factors, and an optional Log.
	LatencyOptions = pdm.LatencyOptions
	// LatencyDist is a per-block service-time law for Latency: the
	// constant-plus-jitter default, or a catalog entry built with
	// Lognormal or Pareto. Distributions are sampled deterministically
	// per (seed, kind, disk, block, visit), exactly like fault decisions.
	LatencyDist = pdm.LatencyDist
	// TornOptions configures TornRange: Seed and Rate for hash-driven
	// tears, TearNth (1-based; 0 disables) for a deterministic count
	// trigger, Mode, and an optional Log.
	TornOptions = pdm.TornOptions
	// PowerLossOptions configures PowerLoss: a zero Seed drops every
	// unsynced block at a crash, a nonzero one keeps a seeded half.
	PowerLossOptions = pdm.PowerLossOptions

	// FlakyBackend injects failures into individual operations.
	FlakyBackend = pdm.FlakyBackend
	// LatencyBackend sleeps a deterministic per-operation service time.
	LatencyBackend = pdm.LatencyBackend
	// TornRangeBackend fails multi-block range transfers midway.
	TornRangeBackend = pdm.TornRangeBackend
	// PowerLossBackend loses, at Crash, the writes no Sync made durable.
	PowerLossBackend = pdm.PowerLossBackend
)

// Fault modes for FlakyOptions.Mode and TornOptions.Mode.
const (
	FaultReadWrite = pdm.FaultReadWrite // inject into reads and writes (zero value)
	FaultReadOnly  = pdm.FaultReadOnly  // inject into reads only
	FaultWriteOnly = pdm.FaultWriteOnly // inject into writes only
)

// Flaky wraps inner so transfers fail per o: hash-seeded with
// probability Rate, or deterministically inside the FailAfterN /
// RecoverAfter count window. Batched transfers before the first faulted
// one still land; the faulted and later ones are not attempted. Under
// concurrent dispatch (bmmc.WithConcurrentIO) every transfer reaches the
// wrapper on its own, so each fails or lands independently and
// FailAfterN counts transfers in goroutine scheduling order.
func Flaky(inner bmmc.Backend, o FlakyOptions) *FlakyBackend {
	return pdm.NewFlakyBackend(inner, o)
}

// Latency wraps inner so every transfer pays a deterministic simulated
// service time: PerBlock per block moved, scaled by the disk's skew
// factor and seeded jitter, slept on the calling goroutine. Under
// concurrent dispatch (bmmc.WithConcurrentIO) every transfer of a batch
// runs on its own goroutine, so all of their delays overlap — several
// runs on one disk included, unlike a real spindle; sequential callers
// pay the sum.
func Latency(inner bmmc.Backend, o LatencyOptions) *LatencyBackend {
	return pdm.NewLatencyBackend(inner, o)
}

// Lognormal returns a catalog service-time law for LatencyOptions.Dist:
// lognormal with the given per-block median and log-scale shape sigma —
// the body of real spinning-disk traces, most operations near the median
// with a smooth right tail.
func Lognormal(median time.Duration, sigma float64) LatencyDist {
	return pdm.LognormalLatency(median, sigma)
}

// Pareto returns a catalog service-time law for LatencyOptions.Dist: a
// power-law tail with minimum per-block time scale and tail index alpha
// (smaller alpha, heavier tail). cap, when positive, clamps individual
// samples so a seeded schedule cannot stall unbounded; 0 leaves the tail
// free.
func Pareto(scale time.Duration, alpha float64, cap time.Duration) LatencyDist {
	return pdm.ParetoLatency(scale, alpha, cap)
}

// TornRange wraps inner so multi-block transfers tear: a seeded prefix of
// the run's blocks is moved, then the batch fails. One-block transfers
// stay atomic, as on a real block device.
func TornRange(inner bmmc.Backend, o TornOptions) *TornRangeBackend {
	return pdm.NewTornRangeBackend(inner, o)
}

// PowerLoss wraps inner so that its Crash method simulates a power cut:
// every block written since a Sync last covered it gets its prior bytes
// back, or, with a nonzero o.Seed, a seeded half of them does (a tear at
// block granularity). Sync(block, count) makes the writes to that range
// of every disk durable. Use it to check that a Dataset's Sync covers
// what must survive.
func PowerLoss(inner bmmc.Backend, o PowerLossOptions) *PowerLossBackend {
	return pdm.NewPowerLossBackend(inner, o)
}

// Faulty wraps inner so the transfer with 0-based ordinal failAfter and
// every later one fail — the simplest adversary, sufficient for "does a
// mid-run fault surface and leave the dataset usable" checks.
func Faulty(inner bmmc.Backend, failAfter int) *FlakyBackend {
	return pdm.NewFaultyBackend(inner, failAfter)
}
