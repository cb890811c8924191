package detrand_test

import (
	"testing"

	"repro/tools/analyzers/detrand"
	"repro/tools/analyzers/internal/analyzertest"
)

func Test(t *testing.T) {
	analyzertest.Run(t, analyzertest.TestData(), detrand.Analyzer,
		"a", "repro", "repro/internal/engine", "seedmain")
}
