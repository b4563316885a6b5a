// Package report renders experiment results as text tables and ASCII
// bar charts (standing in for the paper's figures).
package report

import (
	"fmt"
	"strings"
)

// Table is a simple left-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, stringifying each cell with %v (floats get %.3f).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Bar is one bar of a chart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders horizontal ASCII bars, the reproduction's rendering of
// the paper's bar figures. Max sets the full-scale value (0 = max bar).
type BarChart struct {
	Title string
	Max   float64
	Width int // characters at full scale (default 50)
	Bars  []Bar
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.Bars = append(c.Bars, Bar{Label: label, Value: value})
}

// String renders the chart.
func (c *BarChart) String() string {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	max := c.Max
	if max <= 0 {
		for _, b := range c.Bars {
			if b.Value > max {
				max = b.Value
			}
		}
	}
	if max == 0 {
		max = 1
	}
	lw := 0
	for _, b := range c.Bars {
		if len(b.Label) > lw {
			lw = len(b.Label)
		}
	}
	var sb strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s\n", c.Title)
	}
	for _, b := range c.Bars {
		n := int(b.Value / max * float64(width))
		if n < 0 {
			n = 0
		}
		if n > width {
			n = width
		}
		fmt.Fprintf(&sb, "  %-*s %6.3f |%s\n", lw, b.Label, b.Value, strings.Repeat("█", n))
	}
	return sb.String()
}

// InjectionRow is one row of a fault-injection campaign table: the
// outcome counts of a Monte Carlo campaign stratum (one structure, or
// one whole campaign) beside the ACE-based AVF it validates.
type InjectionRow struct {
	Label    string
	Bits     uint64 // SER-relevant bit count of the stratum
	Trials   int
	SDC      int // silent data corruptions
	Detected int // corruptions on detection-protected structures (DUE)
	Masked   int
	Pruned   int     // targets proven masked statically (no replay)
	AVF      float64 // injection-measured, scaled to the sampled live subspace
	Lo, Hi   float64 // 95% confidence interval on AVF
	ACE      float64 // the ACE-accounting AVF being validated
}

// InjectionTable renders campaign rows in the repo's table style: the
// injection-measured AVF with its 95% confidence interval beside the
// ACE-based AVF, flagging rows whose ACE value escapes the interval.
// Zero-trial rows render with an empty interval and no flag.
func InjectionTable(title string, rows []InjectionRow) string {
	t := &Table{Title: title, Headers: []string{
		"target", "bits", "trials", "sdc", "due", "masked", "pruned",
		"AVF(inj)", "95% CI", "AVF(ace)", "in CI"}}
	for _, r := range rows {
		ci, in := "-", "-"
		if r.Trials > 0 {
			ci = fmt.Sprintf("[%.4f, %.4f]", r.Lo, r.Hi)
			if r.ACE >= r.Lo && r.ACE <= r.Hi {
				in = "yes"
			} else {
				in = "NO"
			}
		}
		t.AddRow(r.Label, r.Bits, r.Trials, r.SDC, r.Detected, r.Masked, r.Pruned,
			fmt.Sprintf("%.4f", r.AVF), ci, fmt.Sprintf("%.4f", r.ACE), in)
	}
	return t.String()
}

// RootCauseRow is one line of a root-cause vulnerability ranking: a
// program instruction (or instruction class) with the SDC/DUE trials
// attributed to it, its bit-cycle-normalised share of the campaign's
// corruption mass, and the Wilson 95% interval on its raw attributed
// fraction.
type RootCauseRow struct {
	Name     string // "0x10004 addq r7 <- r6, r2" or a class mnemonic
	SDC      int
	DUE      int
	Share    float64 // bit-cycle-normalised corruption share
	Lo, Hi   float64 // Wilson 95% CI on attributed fraction of corrupted trials
	Demanded int     // trials whose flipped bit lies in the consumer's demand mask
}

// RootCauseTable renders a root-cause ranking in the repo's table
// style. Rows arrive pre-sorted (most vulnerable first) — rendering
// never reorders, so callers own the determinism of the ranking.
func RootCauseTable(title string, rows []RootCauseRow) string {
	t := &Table{Title: title, Headers: []string{
		"cause", "sdc", "due", "share", "95% CI", "demanded"}}
	for _, r := range rows {
		t.AddRow(r.Name, r.SDC, r.DUE,
			fmt.Sprintf("%.4f", r.Share),
			fmt.Sprintf("[%.4f, %.4f]", r.Lo, r.Hi),
			r.Demanded)
	}
	return t.String()
}

// Sparkline renders a sequence of values as a one-line unicode spark
// chart, used for the GA convergence trace (Figure 5b).
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var b strings.Builder
	for _, v := range values {
		i := 0
		if span > 0 {
			i = int((v - lo) / span * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[i])
	}
	return b.String()
}
