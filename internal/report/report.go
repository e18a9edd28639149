// Package report renders experiment results: named series keyed by a
// categorical X axis (VM count, interrupt policy, message size, time), the
// paper's reference values alongside the measured ones, and the qualitative
// shape checks each experiment asserts.
package report

import (
	"fmt"
	"strings"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X string
	Y float64
}

// Series is a named, unit-tagged sequence of points.
type Series struct {
	Name   string
	Unit   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x string, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Y reports the value at label x (0, false if absent).
func (s *Series) Y(x string) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Check is one qualitative assertion about a figure's shape.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Figure is one reproduced table/figure.
type Figure struct {
	ID          string // e.g. "fig12"
	Title       string
	Description string
	Series      []*Series
	// PaperRef lists the paper's reported values for side-by-side
	// comparison in EXPERIMENTS.md.
	PaperRef []string
	Checks   []Check
}

// AddSeries creates, registers and returns a new series.
func (f *Figure) AddSeries(name, unit string) *Series {
	s := &Series{Name: name, Unit: unit}
	f.Series = append(f.Series, s)
	return s
}

// AddLatencyPercentiles creates the conventional p50/p95/p99 microsecond
// series for one latency metric ("<prefix>-p50" …) and returns a function
// that appends one labeled point to all three at once.
func (f *Figure) AddLatencyPercentiles(prefix string) func(label string, p50, p95, p99 float64) {
	s50 := f.AddSeries(prefix+"-p50", "µs")
	s95 := f.AddSeries(prefix+"-p95", "µs")
	s99 := f.AddSeries(prefix+"-p99", "µs")
	return func(label string, p50, p95, p99 float64) {
		s50.Add(label, p50)
		s95.Add(label, p95)
		s99.Add(label, p99)
	}
}

// CheckRange records a bounds assertion.
func (f *Figure) CheckRange(name string, got, lo, hi float64) {
	f.Checks = append(f.Checks, Check{
		Name:   name,
		Pass:   got >= lo && got <= hi,
		Detail: fmt.Sprintf("got %.2f, want [%.2f, %.2f]", got, lo, hi),
	})
}

// CheckTrue records a boolean assertion.
func (f *Figure) CheckTrue(name string, pass bool, detail string) {
	f.Checks = append(f.Checks, Check{Name: name, Pass: pass, Detail: detail})
}

// AllChecksPass reports whether every shape check held.
func (f *Figure) AllChecksPass() bool {
	for _, c := range f.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// FailedChecks lists the failing checks.
func (f *Figure) FailedChecks() []Check {
	var out []Check
	for _, c := range f.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// xLabels returns the union of X labels across series, in first-seen order.
func (f *Figure) xLabels() []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				out = append(out, p.X)
			}
		}
	}
	return out
}

// Table renders the figure as an aligned text table: one row per X label,
// one column per series.
func (f *Figure) Table() string {
	labels := f.xLabels()
	cols := make([][]string, 0, len(f.Series)+1)
	head := []string{""}
	head = append(head, labels...)
	cols = append(cols, head)
	for _, s := range f.Series {
		col := []string{fmt.Sprintf("%s (%s)", s.Name, s.Unit)}
		for _, x := range labels {
			if y, ok := s.Y(x); ok {
				col = append(col, formatY(y))
			} else {
				col = append(col, "-")
			}
		}
		cols = append(cols, col)
	}
	// Transpose to rows: row 0 is the header of series names.
	var b strings.Builder
	// Compute widths per column.
	width := make([]int, len(cols))
	for i, col := range cols {
		for _, cell := range col {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	nRows := len(labels) + 1
	for r := 0; r < nRows; r++ {
		for i, col := range cols {
			cell := "-"
			if r < len(col) {
				cell = col[r]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, cell)
		}
		b.WriteByte('\n')
		if r == 0 {
			for i := range cols {
				b.WriteString(strings.Repeat("-", width[i]) + "  ")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func formatY(y float64) string {
	a := y
	if a < 0 {
		a = -a
	}
	switch {
	case a >= 1000:
		return fmt.Sprintf("%.0f", y)
	case a >= 10:
		return fmt.Sprintf("%.1f", y)
	default:
		return fmt.Sprintf("%.2f", y)
	}
}

// Markdown renders the full figure report: title, paper reference,
// measured table, and checks.
func (f *Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", strings.ToUpper(f.ID[:1])+f.ID[1:], f.Title)
	if f.Description != "" {
		fmt.Fprintf(&b, "%s\n\n", f.Description)
	}
	if len(f.PaperRef) > 0 {
		b.WriteString("Paper reports:\n")
		for _, r := range f.PaperRef {
			fmt.Fprintf(&b, "- %s\n", r)
		}
		b.WriteByte('\n')
	}
	b.WriteString("Measured:\n\n```\n")
	b.WriteString(f.Table())
	b.WriteString("```\n\n")
	if len(f.Checks) > 0 {
		b.WriteString("Shape checks:\n")
		for _, c := range f.Checks {
			mark := "PASS"
			if !c.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "- [%s] %s (%s)\n", mark, c.Name, c.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure's series as comma-separated values: a header of
// "x,<series (unit)>..." followed by one row per X label. Cells without a
// point are empty.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s (%s)", csvEscape(s.Name), csvEscape(s.Unit))
	}
	b.WriteByte('\n')
	for _, x := range f.xLabels() {
		b.WriteString(csvEscape(x))
		for _, s := range f.Series {
			b.WriteByte(',')
			if y, ok := s.Y(x); ok {
				fmt.Fprintf(&b, "%g", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
