// Package stats provides the small numeric and table-formatting helpers the
// experiment harness uses to aggregate per-query measurements and print
// paper-style result tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Summary holds the moments and extremes of a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	Sum  float64
}

// Summarize computes a Summary over xs (population standard deviation, as
// used in the paper's Table 1).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	return s
}

// Ratio returns a/b, guarding division by zero: the speedup convention used
// throughout the experiments (ratio of baseline over improved). A zero
// denominator with a non-zero numerator reports +Inf; 0/0 reports 1 (no
// change).
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}

// Table accumulates rows and renders an aligned text table: the output
// format of every experiment regenerator.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted cells, one format per cell value.
func (t *Table) AddRowf(cells ...interface{}) {
	ss := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			ss[i] = v
		case float64:
			ss[i] = FormatFloat(v)
		case int:
			ss[i] = fmt.Sprintf("%d", v)
		case int64:
			ss[i] = fmt.Sprintf("%d", v)
		default:
			ss[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(ss...)
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with two decimals.
func FormatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	if math.IsNaN(v) {
		return "-"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// String renders the aligned table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
