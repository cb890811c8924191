//go:build !linux

package main

import "runtime"

// peakRSSMB approximates the peak resident set size by the memory the Go
// runtime has obtained from the OS, where getrusage is not available.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS has nothing to reset: the approximation above only grows.
func resetPeakRSS() error { return nil }

func fsType(string) string { return "unknown" }
