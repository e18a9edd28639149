package report

import (
	"strings"
	"testing"
)

func buildFigure() *Figure {
	f := &Figure{ID: "fig99", Title: "Example", Description: "desc", PaperRef: []string{"ref line"}}
	s1 := f.AddSeries("throughput", "Mbps")
	s1.Add("10", 957)
	s1.Add("20", 956)
	s2 := f.AddSeries("cpu", "%")
	s2.Add("10", 193)
	s2.Add("20", 221)
	return f
}

// findSeries returns the figure's series with the given name, or nil.
func findSeries(f *Figure, name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func TestSeriesAccess(t *testing.T) {
	f := buildFigure()
	s := findSeries(f, "throughput")
	if s == nil {
		t.Fatal("series missing")
	}
	if y, ok := s.Y("10"); !ok || y != 957 {
		t.Fatalf("Y = %v %v", y, ok)
	}
	if _, ok := s.Y("99"); ok {
		t.Fatal("absent label should miss")
	}
	if findSeries(f, "nope") != nil {
		t.Fatal("unknown series should be nil")
	}
}

func TestChecks(t *testing.T) {
	f := buildFigure()
	f.CheckRange("in-band", 5, 0, 10)
	f.CheckRange("out-of-band", 50, 0, 10)
	f.CheckTrue("flag", true, "ok")
	if f.AllChecksPass() {
		t.Fatal("one check should fail")
	}
	failed := f.FailedChecks()
	if len(failed) != 1 || failed[0].Name != "out-of-band" {
		t.Fatalf("failed = %v", failed)
	}
}

func TestTableRendering(t *testing.T) {
	f := buildFigure()
	tab := f.Table()
	for _, want := range []string{"throughput (Mbps)", "cpu (%)", "957", "193", "10", "20"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
	// Missing point renders as "-".
	findSeries(f, "cpu").Points = findSeries(f, "cpu").Points[:1]
	if !strings.Contains(f.Table(), "-") {
		t.Fatal("missing point should render as dash")
	}
}

func TestMarkdownRendering(t *testing.T) {
	f := buildFigure()
	f.CheckRange("band", 5, 0, 10)
	md := f.Markdown()
	for _, want := range []string{"## Fig99 — Example", "Paper reports:", "ref line", "```", "[PASS] band"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	f.CheckRange("bad", 50, 0, 10)
	if !strings.Contains(f.Markdown(), "[FAIL] bad") {
		t.Fatal("failing check should render FAIL")
	}
}

func TestFormatY(t *testing.T) {
	cases := map[float64]string{
		9570:  "9570",
		193.4: "193.4",
		2.86:  "2.86",
	}
	for in, want := range cases {
		if got := formatY(in); got != want {
			t.Fatalf("formatY(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCSV(t *testing.T) {
	f := buildFigure()
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "x,throughput (Mbps),cpu (%)" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "10,957,193" {
		t.Fatalf("row = %q", lines[1])
	}
	// Missing point → empty cell.
	findSeries(f, "cpu").Points = findSeries(f, "cpu").Points[:1]
	if !strings.Contains(f.CSV(), "20,956,\n") {
		t.Fatalf("missing point not empty:\n%s", f.CSV())
	}
	// Escaping.
	f2 := &Figure{ID: "x", Title: "t"}
	s := f2.AddSeries(`we,ird"name`, "u")
	s.Add("a,b", 1)
	if !strings.Contains(f2.CSV(), `"we,ird""name"`) || !strings.Contains(f2.CSV(), `"a,b"`) {
		t.Fatalf("escape failed:\n%s", f2.CSV())
	}
}
