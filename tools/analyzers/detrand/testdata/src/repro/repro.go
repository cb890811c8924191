// Package bmmc stands in for the repository's root package, which is on
// the deterministic-package list: planning and dataset code draws every
// random choice from a caller-seeded source and never reads the clock.
package bmmc

import (
	"math/rand"
	"time"
)

func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // ok: caller-seeded
}

func Stamp() time.Time {
	return time.Now() // want "time.Now in deterministic package repro"
}
