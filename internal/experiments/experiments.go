// Package experiments contains the workload generators, parameter sweeps
// and table renderers that regenerate every quantitative artifact of the
// paper: Table 1, Figures 1-4 (as executable measurements), and the label
// size / table size / header size / stretch / decode-time claims of
// Theorems 1.3-1.6, 3.6, 3.7, 5.3, 5.5 and 5.8.
//
// Each runner returns a Table; cmd/experiments prints them all (DESIGN.md
// §2 indexes them), and bench_test.go at the repository root exposes one
// benchmark per experiment.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Paper  string // the claim being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&sb, "   paper: %s\n", t.Paper)
	}
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "   note: %s\n", n)
	}
	return sb.String()
}

// f1, f2, i0 are cell formatters.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func i0(v int) string     { return fmt.Sprintf("%d", v) }
func i64(v int64) string  { return fmt.Sprintf("%d", v) }

// Experiment names one experiment and how to run it, so callers can
// filter by id before paying for the measurement.
type Experiment struct {
	ID  string
	Run func(seed uint64) *Table
}

// Registry lists every experiment in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"E1", E1Table1},
		{"E2", E2CutLabels},
		{"E3", E3SketchLabels},
		{"E4", E4LabelingTime},
		{"E5", E5CutSides},
		{"E6", E6ComponentTree},
		{"E7", E7SuccinctPath},
		{"E8", E8DistanceLabels},
		{"E9", E9ForbiddenRouting},
		{"E10", E10FTRouting},
		{"E11", E11LowerBound},
		{"E12", E12BalancedAblation},
		{"E13", E13SketchUnitsAblation},
		{"E14", E14TreeCover},
	}
}

// All runs every experiment with one seed. Sizes are chosen so the full
// suite completes in a couple of minutes on a laptop.
func All(seed uint64) []*Table {
	var out []*Table
	for _, e := range Registry() {
		out = append(out, e.Run(seed))
	}
	return out
}
