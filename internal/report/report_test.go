package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"name", "value"}}
	tb.AddRow("alpha", 0.5)
	tb.AddRow("b", 42)
	s := tb.String()
	for _, want := range []string{"T\n", "name", "alpha", "0.500", "42", "----"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	// Columns align: every row has the header's width.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines, want 5", len(lines))
	}
}

func TestBarChart(t *testing.T) {
	c := &BarChart{Title: "chart", Max: 1, Width: 10}
	c.Add("full", 1.0)
	c.Add("half", 0.5)
	c.Add("over", 1.5) // clamps to full width
	c.Add("neg", -0.1) // clamps to zero
	s := c.String()
	if !strings.Contains(s, "chart") {
		t.Error("title missing")
	}
	if !strings.Contains(s, strings.Repeat("█", 10)) {
		t.Error("full-scale bar missing")
	}
	if strings.Contains(s, strings.Repeat("█", 11)) {
		t.Error("over-scale bar not clamped")
	}
	if !strings.Contains(s, "0.500 |█████\n") {
		t.Errorf("half bar wrong:\n%s", s)
	}
}

func TestBarChartAutoScale(t *testing.T) {
	c := &BarChart{Width: 10}
	c.Add("a", 2)
	c.Add("b", 4)
	s := c.String()
	if !strings.Contains(s, strings.Repeat("█", 10)) {
		t.Error("auto-scaled max bar should be full width")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty input should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline length %d, want 4", len([]rune(s)))
	}
	if []rune(s)[0] != '▁' || []rune(s)[3] != '█' {
		t.Errorf("sparkline extremes wrong: %q", s)
	}
	flat := Sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Errorf("flat series renders as %q", flat)
	}
}
