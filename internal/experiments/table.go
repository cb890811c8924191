// Package experiments reproduces the paper's evaluation artifacts. Each
// generator builds the workload named in DESIGN.md's per-experiment index,
// runs it on the simulated parallel disk system, and emits a table pairing
// measured parallel-I/O counts with the paper's closed-form bounds. The
// cmd/bmmcbench tool prints these tables.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one reproduced experiment: an identifier tying it to DESIGN.md's
// index, captioned columns, and formatted rows.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// Elapsed is the wall-clock time the experiment took, stamped by the
	// harness (cmd/bmmcbench) so perf trajectories can be tracked across
	// runs alongside the parallel-I/O counts in the rows.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	printRow(rule)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if t.Elapsed > 0 {
		fmt.Fprintf(w, "wall-clock: %.1fms\n", float64(t.Elapsed.Microseconds())/1000)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func ftoa(v float64) string { return fmt.Sprintf("%.1f", v) }
