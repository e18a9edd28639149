package bench

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

func baseFile() *File {
	return &File{
		Schema: Schema,
		Experiments: []Experiment{
			{
				ID: "fig08", Title: "CPU vs ITR", WallNS: 1_000_000_000, Tasks: 5, ChecksPass: true,
				Metrics: []report.Metric{
					{Series: "cpu", Unit: "%", Value: 50},
					{Series: "throughput", Unit: "Mbps", Value: 9000},
				},
				Allocs: 1_000_000, AllocBytes: 64_000_000,
			},
			{
				ID: "fig20", Title: "migration", WallNS: 500_000_000, Tasks: 1, ChecksPass: true,
				Metrics: []report.Metric{{Series: "downtime", Unit: "ms", Value: 300}},
			},
		},
		GoBench: []GoBenchResult{
			{Name: "BenchmarkFig16-8", N: 10, Metrics: map[string]float64{"ns/op": 1000, "B/op": 64, "allocs/op": 8}},
		},
		Totals: Totals{WallNS: 1_500_000_000, SimEvents: 1_000_000, EventsPerSec: 666_666},
	}
}

// clone deep-copies via the JSON round trip the comparator consumes anyway.
func clone(t *testing.T, f *File) *File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := baseFile()
	r := Compare(base, clone(t, base), CompareOptions{})
	if r.Failed() {
		t.Fatalf("identical files failed: %s", r)
	}
	if len(r.Improvements) != 0 || len(r.Warnings) != 0 {
		t.Fatalf("identical files produced noise: %s", r)
	}
}

func TestCompareWallRegression(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[0].WallNS = 2 * base.Experiments[0].WallNS // +100% > 25%
	r := Compare(base, cur, CompareOptions{})
	if !r.Failed() || len(r.Regressions) != 1 {
		t.Fatalf("wall regression not caught: %s", r)
	}
	if !strings.Contains(r.Regressions[0], "fig08") {
		t.Fatalf("wrong experiment blamed: %s", r.Regressions[0])
	}
}

func TestCompareWallWithinThreshold(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[0].WallNS = base.Experiments[0].WallNS * 110 / 100 // +10% < 25%
	if r := Compare(base, cur, CompareOptions{}); r.Failed() {
		t.Fatalf("noise within threshold failed the gate: %s", r)
	}
}

func TestCompareImprovement(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[0].WallNS = base.Experiments[0].WallNS / 2
	r := Compare(base, cur, CompareOptions{})
	if r.Failed() {
		t.Fatalf("improvement failed the gate: %s", r)
	}
	if len(r.Improvements) != 1 {
		t.Fatalf("improvement not reported: %s", r)
	}
}

func TestCompareMetricDrift(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[0].Metrics[1].Value = 9100 // +1.1% > 0.1% — deterministic drift
	r := Compare(base, cur, CompareOptions{})
	if !r.Failed() {
		t.Fatalf("metric drift not caught: %s", r)
	}
	if !strings.Contains(r.Regressions[0], "throughput") {
		t.Fatalf("wrong metric blamed: %s", r.Regressions[0])
	}
}

func TestCompareMissingMetric(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[0].Metrics = cur.Experiments[0].Metrics[:1] // drop "throughput"
	r := Compare(base, cur, CompareOptions{})
	if !r.Failed() || len(r.Missing) != 1 {
		t.Fatalf("missing metric not caught: %s", r)
	}
	if !strings.Contains(r.Missing[0], "throughput") {
		t.Fatalf("wrong metric reported missing: %s", r.Missing[0])
	}
}

func TestCompareMissingExperimentAndNewExperiment(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments = cur.Experiments[:1] // drop fig20
	cur.Experiments = append(cur.Experiments, Experiment{ID: "fig99", ChecksPass: true})
	r := Compare(base, cur, CompareOptions{})
	if !r.Failed() || len(r.Missing) != 1 || !strings.Contains(r.Missing[0], "fig20") {
		t.Fatalf("missing experiment not caught: %s", r)
	}
	if len(r.Warnings) == 0 || !strings.Contains(r.Warnings[0], "fig99") {
		t.Fatalf("new experiment not warned about: %s", r)
	}
}

func TestCompareChecksRegression(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[1].ChecksPass = false
	r := Compare(base, cur, CompareOptions{})
	if !r.Failed() || !strings.Contains(r.Regressions[0], "shape checks") {
		t.Fatalf("check regression not caught: %s", r)
	}
}

func TestCompareGoBench(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.GoBench[0].Metrics["ns/op"] = 2000 // +100%
	r := Compare(base, cur, CompareOptions{})
	if !r.Failed() || !strings.Contains(r.Regressions[0], "BenchmarkFig16-8") {
		t.Fatalf("go-bench regression not caught: %s", r)
	}

	// A single vanished benchmark (others present) is a hard miss.
	cur = clone(t, base)
	cur.GoBench = append(cur.GoBench[:0:0], GoBenchResult{Name: "BenchmarkOther", N: 1, Metrics: map[string]float64{"ns/op": 5}})
	if r := Compare(base, cur, CompareOptions{}); !r.Failed() || len(r.Missing) != 1 {
		t.Fatalf("vanished go-bench not caught: %s", r)
	}

	// A wholly absent section means the benchmarks weren't run — warn only.
	cur = clone(t, base)
	cur.GoBench = nil
	r = Compare(base, cur, CompareOptions{})
	if r.Failed() {
		t.Fatalf("absent go-bench section failed the gate: %s", r)
	}
	if len(r.Warnings) != 1 || !strings.Contains(r.Warnings[0], "absent") {
		t.Fatalf("absent go-bench section not warned about: %s", r)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[0].Allocs = base.Experiments[0].Allocs * 3 / 2 // +50% > 10%
	r := Compare(base, cur, CompareOptions{})
	if !r.Failed() || len(r.Regressions) != 1 {
		t.Fatalf("alloc regression not caught: %s", r)
	}
	if !strings.Contains(r.Regressions[0], "fig08: allocs") {
		t.Fatalf("wrong figure blamed: %s", r.Regressions[0])
	}

	// Warn-only mode demotes it without touching the exit status.
	r = Compare(base, cur, CompareOptions{AllocWarnOnly: true})
	if r.Failed() {
		t.Fatalf("alloc-warn-only still failed: %s", r)
	}
	if len(r.Warnings) != 1 || !strings.Contains(r.Warnings[0], "alloc warn-only") {
		t.Fatalf("alloc regression not demoted to warning: %s", r)
	}
}

func TestCompareAllocImprovementAndThreshold(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[0].AllocBytes = base.Experiments[0].AllocBytes / 5 // -80%
	r := Compare(base, cur, CompareOptions{})
	if r.Failed() {
		t.Fatalf("alloc improvement failed the gate: %s", r)
	}
	if len(r.Improvements) != 1 || !strings.Contains(r.Improvements[0], "alloc bytes") {
		t.Fatalf("alloc improvement not reported: %s", r)
	}

	cur = clone(t, base)
	cur.Experiments[0].Allocs = base.Experiments[0].Allocs * 105 / 100 // +5% < 10%
	if r := Compare(base, cur, CompareOptions{}); r.Failed() {
		t.Fatalf("alloc noise within threshold failed the gate: %s", r)
	}
}

func TestCompareAllocAbsentSideSkipped(t *testing.T) {
	// A parallel run records no per-experiment allocs; that must read as
	// "not measured", not as a regression or a 100% improvement.
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[0].Allocs = 0
	cur.Experiments[0].AllocBytes = 0
	r := Compare(base, cur, CompareOptions{})
	if r.Failed() || len(r.Improvements) != 0 {
		t.Fatalf("absent alloc fields produced noise: %s", r)
	}
	// Same the other way: an alloc-less baseline gates nothing.
	base.Experiments[0].Allocs = 0
	base.Experiments[0].AllocBytes = 0
	cur = clone(t, baseFile())
	if r := Compare(base, cur, CompareOptions{}); r.Failed() || len(r.Improvements) != 0 {
		t.Fatalf("alloc-less baseline produced noise: %s", r)
	}
}

func TestCompareParallelRunSkipsAllocFiguresWithNote(t *testing.T) {
	// A parallel current run against a serial baseline must announce that
	// the serial-only alloc figures were skipped — one note for the whole
	// file, not a silent pass and not per-figure missing-metric noise.
	base := baseFile()
	cur := clone(t, base)
	cur.Parallel = 4
	for i := range cur.Experiments {
		cur.Experiments[i].Allocs = 0
		cur.Experiments[i].AllocBytes = 0
	}
	r := Compare(base, cur, CompareOptions{})
	if r.Failed() || len(r.Improvements) != 0 {
		t.Fatalf("parallel-run alloc absence produced failures: %s", r)
	}
	if len(r.Warnings) != 1 || !strings.Contains(r.Warnings[0], "alloc figures skipped") ||
		!strings.Contains(r.Warnings[0], "parallel=4") {
		t.Fatalf("parallel alloc skip not announced: %s", r)
	}

	// A serial current run (parallel=1) keeps full alloc gating: no note.
	cur = clone(t, base)
	cur.Parallel = 1
	cur.Experiments[0].Allocs = base.Experiments[0].Allocs * 3 / 2
	r = Compare(base, cur, CompareOptions{})
	if !r.Failed() || len(r.Warnings) != 0 {
		t.Fatalf("serial run lost alloc gating: %s", r)
	}

	// A parallel run that somehow still carries alloc figures is gated,
	// not skipped — the skip is only for the figures-absent shape.
	cur = clone(t, base)
	cur.Parallel = 4
	cur.Experiments[0].Allocs = base.Experiments[0].Allocs * 3 / 2
	r = Compare(base, cur, CompareOptions{})
	if !r.Failed() || len(r.Warnings) != 0 {
		t.Fatalf("parallel run with alloc figures was not gated: %s", r)
	}
}

func TestCompareGoBenchAllocs(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.GoBench[0].Metrics["allocs/op"] = 16 // +100% > 10%
	r := Compare(base, cur, CompareOptions{})
	if !r.Failed() || len(r.Regressions) != 1 {
		t.Fatalf("go-bench allocs/op regression not caught: %s", r)
	}
	if !strings.Contains(r.Regressions[0], "allocs/op") {
		t.Fatalf("wrong unit blamed: %s", r.Regressions[0])
	}

	cur = clone(t, base)
	cur.GoBench[0].Metrics["B/op"] = 8 // -87%
	r = Compare(base, cur, CompareOptions{})
	if r.Failed() || len(r.Improvements) != 1 || !strings.Contains(r.Improvements[0], "B/op") {
		t.Fatalf("go-bench B/op improvement not reported: %s", r)
	}
}

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
BenchmarkFig16Scale-8   	      10	 123456789 ns/op	        9414 Mbps	 1024 B/op	      12 allocs/op
BenchmarkEngineStep     	 2000000	       612 ns/op
some log line from the simulator
PASS
ok  	repro	42.1s
`
	got, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(got), got)
	}
	b0 := got[0]
	if b0.Name != "BenchmarkFig16Scale" || b0.N != 10 {
		t.Fatalf("bad first result: %+v", b0)
	}
	want := map[string]float64{"ns/op": 123456789, "Mbps": 9414, "B/op": 1024, "allocs/op": 12}
	for k, v := range want {
		if b0.Metrics[k] != v {
			t.Fatalf("metric %s = %v, want %v", k, b0.Metrics[k], v)
		}
	}
	if got[1].Metrics["ns/op"] != 612 {
		t.Fatalf("bad second result: %+v", got[1])
	}
}

// TestCompareGoBenchAcrossGOMAXPROCS compares a record taken at
// GOMAXPROCS 2 (names suffixed -2) against one taken at GOMAXPROCS 1 (no
// suffix): the same benchmarks match by name, and one that really is
// absent still fails the gate.
func TestCompareGoBenchAcrossGOMAXPROCS(t *testing.T) {
	parse := func(out string) *File {
		t.Helper()
		g, err := ParseGoBench(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		return &File{Schema: Schema, GoBench: g}
	}
	base := parse(`BenchmarkEngineStep   	 2000000	       612 ns/op	       0 B/op	       0 allocs/op
BenchmarkTranslateDMA 	10000000	        67 ns/op	       0 B/op	       0 allocs/op
`)
	cur := parse(`BenchmarkEngineStep-2   	 2000000	       615 ns/op	       0 B/op	       0 allocs/op
BenchmarkTranslateDMA-2 	10000000	        66 ns/op	       0 B/op	       0 allocs/op
`)
	if r := Compare(base, cur, CompareOptions{}); r.Failed() || len(r.Missing) != 0 {
		t.Fatalf("gomaxprocs-2 record against a gomaxprocs-1 baseline: %s", r)
	}
	cur.GoBench = cur.GoBench[:1]
	r := Compare(base, cur, CompareOptions{})
	if !r.Failed() || len(r.Missing) != 1 || !strings.Contains(r.Missing[0], "BenchmarkTranslateDMA") {
		t.Fatalf("a benchmark absent from the candidate must fail the gate: %s", r)
	}
}

func TestWriteReadRoundTripAndSchemaCheck(t *testing.T) {
	base := baseFile()
	got := clone(t, base) // Write+Read round trip
	if got.Experiments[0].ID != "fig08" || got.Totals.SimEvents != base.Totals.SimEvents {
		t.Fatalf("round trip mangled file: %+v", got)
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	bad := baseFile()
	bad.Schema = 99
	if err := Write(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}
}

func TestCompareNewMetricWarnsInsteadOfSilentPass(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Experiments[0].Metrics = append(cur.Experiments[0].Metrics,
		report.Metric{Series: "loss", Unit: "%", Value: 3})
	r := Compare(base, cur, CompareOptions{})
	if r.Failed() {
		t.Fatalf("new metric must not fail the gate: %s", r)
	}
	if len(r.Warnings) != 1 || !strings.Contains(r.Warnings[0], `"loss"`) ||
		!strings.Contains(r.Warnings[0], "re-recorded") {
		t.Fatalf("new metric not surfaced as a warning: %s", r)
	}
}

func TestCompareNewObsTotalWarnsInsteadOfSilentPass(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.Totals.DPCacheHits = 12345
	r := Compare(base, cur, CompareOptions{})
	if r.Failed() {
		t.Fatalf("baseline-less obs total must not fail the gate: %s", r)
	}
	if len(r.Warnings) != 1 || !strings.Contains(r.Warnings[0], "dp_cache_hits") {
		t.Fatalf("baseline-less obs total not surfaced as a warning: %s", r)
	}
	// With a recorded baseline it is gated like any deterministic metric.
	base.Totals.DPCacheHits = 12000
	r = Compare(base, cur, CompareOptions{})
	if !r.Failed() || len(r.Regressions) != 1 || !strings.Contains(r.Regressions[0], "dp_cache_hits") {
		t.Fatalf("recorded dp_cache_hits drift not gated: %s", r)
	}
}

func TestCompareNewGoBenchWarnsInsteadOfSilentPass(t *testing.T) {
	base := baseFile()
	cur := clone(t, base)
	cur.GoBench = append(cur.GoBench, GoBenchResult{
		Name: "BenchmarkFig26-8", N: 5, Metrics: map[string]float64{"ns/op": 2000}})
	r := Compare(base, cur, CompareOptions{})
	if r.Failed() {
		t.Fatalf("new go-bench must not fail the gate: %s", r)
	}
	if len(r.Warnings) != 1 || !strings.Contains(r.Warnings[0], "BenchmarkFig26-8") {
		t.Fatalf("new go-bench not surfaced as a warning: %s", r)
	}
}
