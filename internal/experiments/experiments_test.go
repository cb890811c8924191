package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pdm"
)

// smallConfig keeps experiment tests fast while exercising every regime.
var smallConfig = pdm.Config{N: 1 << 12, D: 4, B: 8, M: 1 << 8}

func checkAllPass(t *testing.T, tbl *Table) {
	t.Helper()
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table", tbl.ID)
	}
	for _, row := range tbl.Rows {
		for _, cell := range row {
			if cell == "FAIL" {
				var buf bytes.Buffer
				tbl.Fprint(&buf)
				t.Fatalf("%s has FAIL row:\n%s", tbl.ID, buf.String())
			}
		}
	}
}

func TestAllExperiments(t *testing.T) {
	t.Parallel()
	tables, err := DefaultHarness().All(context.Background(), smallConfig, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 13 {
		t.Fatalf("expected 13 experiment tables, got %d", len(tables))
	}
	for _, tbl := range tables {
		checkAllPass(t, tbl)
	}
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tbl := &Table{
		ID:      "X",
		Title:   "demo",
		Columns: []string{"a", "long column"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "long column", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestByName(t *testing.T) {
	t.Parallel()
	h := DefaultHarness()
	for _, name := range Names() {
		if h.ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if h.ByName("nope") != nil {
		t.Error("unknown name returned a generator")
	}
}

// TestCrossoverShape: the headline claim — at rank gamma = 0 the BMMC
// algorithm must beat the sort baseline by a wide margin, and the speedup
// must shrink (weakly) as rank grows.
func TestCrossoverShape(t *testing.T) {
	t.Parallel()
	tbl, err := DefaultHarness().Crossover(context.Background(), smallConfig, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := tbl.Rows[0]
	last := tbl.Rows[len(tbl.Rows)-1]
	var firstBMMC, lastBMMC, sortIOs int
	if _, err := parseInt(first[1], &firstBMMC); err != nil {
		t.Fatal(err)
	}
	if _, err := parseInt(last[1], &lastBMMC); err != nil {
		t.Fatal(err)
	}
	if _, err := parseInt(first[2], &sortIOs); err != nil {
		t.Fatal(err)
	}
	if firstBMMC >= sortIOs {
		t.Errorf("rank 0 BMMC (%d I/Os) does not beat sort (%d I/Os)", firstBMMC, sortIOs)
	}
	if lastBMMC < firstBMMC {
		t.Errorf("cost decreased with rank: %d -> %d", firstBMMC, lastBMMC)
	}
}

// TestFusionShowsStrictWin: the fusion table must contain at least one
// catalog instance where the fused plan strictly beats the unfused one in
// both pass count and measured parallel I/Os — the MLD and inverse-MLD
// families guarantee it at every geometry, since Factorize has no fast
// path for them and emits two passes where fusion needs one.
func TestFusionShowsStrictWin(t *testing.T) {
	t.Parallel()
	tbl, err := DefaultHarness().Fusion(context.Background(), smallConfig, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPass(t, tbl)
	strict := false
	for _, row := range tbl.Rows {
		var unfused, fused, unfusedIOs, fusedIOs int
		parseInt(row[1], &unfused)
		parseInt(row[2], &fused)
		parseInt(row[3], &unfusedIOs)
		parseInt(row[4], &fusedIOs)
		if fused > unfused || fusedIOs > unfusedIOs {
			t.Errorf("fusion regressed %s: passes %d->%d, I/Os %d->%d", row[0], unfused, fused, unfusedIOs, fusedIOs)
		}
		if fused < unfused && fusedIOs < unfusedIOs {
			strict = true
		}
	}
	if !strict {
		t.Error("no catalog instance strictly improved by fusion")
	}
}

// TestHarnessSettingsRunConcurrently runs the same experiments under
// differently configured harnesses at once (under -race this proves the
// settings are per-value, not shared state): only wall-clock may differ,
// so every table must pass and the fused harness may only lower pass
// counts.
func TestHarnessSettingsRunConcurrently(t *testing.T) {
	t.Parallel()
	fused := DefaultHarness()
	fused.Fuse, fused.ConcurrentIO = true, true
	for _, h := range []Harness{DefaultHarness(), fused} {
		t.Run(fmt.Sprintf("fuse=%v", h.Fuse), func(t *testing.T) {
			t.Parallel()
			for _, name := range []string{"tightbounds", "transpose", "ablation"} {
				tbl, err := h.ByName(name)(context.Background(), smallConfig, 5)
				if err != nil {
					t.Fatal(err)
				}
				checkAllPass(t, tbl)
			}
		})
	}
}

func parseInt(s string, out *int) (int, error) {
	var v int
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			break
		}
		v = v*10 + int(ch-'0')
	}
	*out = v
	return v, nil
}
