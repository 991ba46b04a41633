package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 || s.Sum != 40 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-2) > 1e-12 { // classic population-σ example
		t.Errorf("std = %v, want 2", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Sum != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 2) != 5 {
		t.Error("10/2")
	}
	if Ratio(0, 0) != 1 {
		t.Error("0/0 should be 1 (no change)")
	}
	if !math.IsInf(Ratio(3, 0), 1) {
		t.Error("3/0 should be +Inf")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("method", "speedup")
	tb.AddRowf("Grapes(6)", 5.25)
	tb.AddRowf("GGSX", 11)
	out := tb.String()
	if !strings.Contains(out, "Grapes(6)") || !strings.Contains(out, "5.25") || !strings.Contains(out, "11") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("table has %d lines", len(lines))
	}
	// columns aligned: header and first row start at same offset
	if strings.Index(lines[0], "speedup") != strings.Index(lines[2], "5.25") {
		t.Error("columns misaligned")
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("x")                // short row padded
	tb.AddRow("1", "2", "3", "4") // long row truncated
	out := tb.String()
	if strings.Contains(out, "4") {
		t.Error("extra cell not dropped")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:           "3",
		3.14159:     "3.14",
		12345.678:   "12345.7",
		0.5:         "0.50",
		math.Inf(1): "inf",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatFloat(math.NaN()); got != "-" {
		t.Errorf("NaN = %q", got)
	}
}
