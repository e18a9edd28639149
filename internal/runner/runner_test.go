package runner

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden figure CSVs and metrics JSON")

// checkGolden compares an artifact with testdata/golden/<name>, the
// byte-for-byte output the figures are pinned to; -update rewrites it.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from its golden:\n%s", name, firstDiffLine(string(want), got))
	}
}

// checkGoldenCSVs pins every listed figure's CSV to its golden.
func checkGoldenCSVs(t *testing.T, s *Summary, ids ...string) {
	t.Helper()
	for _, id := range ids {
		for _, r := range s.Results {
			if r.ID == id {
				checkGolden(t, id+".csv", r.Figure.CSV())
			}
		}
	}
}

// suiteMarkdown renders a run the way sriovsim -all does: every figure's
// markdown, in order. Byte equality of this string is the determinism
// invariant.
func suiteMarkdown(t *testing.T, s *Summary) string {
	t.Helper()
	var b strings.Builder
	for _, r := range s.Results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		b.WriteString(r.Figure.Markdown())
	}
	return b.String()
}

// determinismIDs picks the suite for the parallel-vs-serial comparison: a
// fast subset under -short or the race detector, everything otherwise.
func determinismIDs(t *testing.T) []string {
	if testing.Short() || raceEnabled {
		return []string{"fig07", "fig08", "fig09", "fig10", "fig20", "fig21"}
	}
	var ids []string
	for _, s := range experiments.All() {
		ids = append(ids, s.ID)
	}
	return ids
}

// TestDeterminismAcrossParallelism asserts the tentpole invariant: the full
// experiment suite renders byte-identical figures at -parallel 1 and
// -parallel 8. The two legs share nothing: each Run plans its own tasks, so
// the -parallel 8 leg recomputes every figure, fig15–fig18 included.
func TestDeterminismAcrossParallelism(t *testing.T) {
	ids := determinismIDs(t)
	s1, err := RunIDs(ids, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	s8, err := RunIDs(ids, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	md1, md8 := suiteMarkdown(t, s1), suiteMarkdown(t, s8)
	if md1 != md8 {
		line := firstDiffLine(md1, md8)
		t.Fatalf("suite output differs between -parallel 1 and -parallel 8; first differing line:\n%s", line)
	}
	if s1.Tasks != s8.Tasks {
		t.Fatalf("task counts differ: %d vs %d", s1.Tasks, s8.Tasks)
	}
	// fig15/fig16 pin the SR-IOV scalability sweeps and fig17–fig19 the
	// netback and VMDq ones (the dom0 copy-thread path) byte for byte,
	// including the HVM cells fig16 and fig18 share with fig15 and fig17;
	// fig25 pins the chaos family.
	checkGoldenCSVs(t, s1, "fig15", "fig16", "fig17", "fig18", "fig19", "fig25")

	// The allocation claim underneath the pooled hot path, pinned where the
	// arenas are owned: once a worker's arena has warmed up, a steady-state
	// schedule→fire→recycle round trip heap-allocates nothing at all.
	if raceEnabled {
		return // AllocsPerRun is meaningless under the race detector's shadow allocations
	}
	eng := sim.NewEngineArena(1, sim.NewArena())
	fired := 0
	tick := func() { fired++ }
	for i := 0; i < 64; i++ {
		eng.After(1, "runner:warm", tick)
	}
	eng.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		eng.After(1, "runner:steady", tick)
		eng.Run()
	}); avg != 0 {
		t.Fatalf("steady-state schedule→fire→recycle allocates %.1f allocs/op, want 0", avg)
	}
}

// TestClusterFiguresDeterministicAcrossParallelism pins the cluster
// experiment family (multi-host fabric, inter-host migration) to the same
// invariant at three parallelism levels, and additionally requires the
// merged metrics registries — the source of the BENCH fabric/migration
// totals — to serialize identically, and all of it to match the goldens.
func TestClusterFiguresDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("cluster figures are slow; covered unabridged in the full run")
	}
	ids := []string{"fig22", "fig23"}
	var md, reg []string
	for _, p := range []int{1, 4, 8} {
		s, err := RunIDs(ids, Options{Parallel: p})
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			checkGoldenCSVs(t, s, ids...)
		}
		md = append(md, suiteMarkdown(t, s))
		var buf bytes.Buffer
		if err := s.Obs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		reg = append(reg, buf.String())
	}
	for i := 1; i < len(md); i++ {
		if md[i] != md[0] {
			t.Fatalf("cluster figures differ between -parallel 1 and -parallel %d:\n%s",
				[]int{1, 4, 8}[i], firstDiffLine(md[0], md[i]))
		}
		if reg[i] != reg[0] {
			t.Fatalf("merged cluster metrics differ between -parallel 1 and -parallel %d",
				[]int{1, 4, 8}[i])
		}
	}
	checkGolden(t, "fig22_fig23_metrics.json", reg[0])
}

// TestCtlFiguresDeterministicAcrossParallelism pins the control-plane
// experiment family (fig28 placement policies, fig29 reconcile-under-chaos)
// at -parallel 1/4/8: byte-identical markdown, byte-identical CSV (the
// artifact EXPERIMENTS.md publishes), and byte-identical merged metrics
// registries — the source of the BENCH placement_churn /
// ctl_p99_downtime_us totals — all pinned to the goldens.
func TestCtlFiguresDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("control-plane figures are slow; covered unabridged in the full run")
	}
	ids := []string{"fig28", "fig29"}
	levels := []int{1, 4, 8}
	var md, csv, reg []string
	for _, p := range levels {
		s, err := RunIDs(ids, Options{Parallel: p})
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			checkGoldenCSVs(t, s, ids...)
		}
		md = append(md, suiteMarkdown(t, s))
		var c strings.Builder
		for _, r := range s.Results {
			c.WriteString(r.Figure.CSV())
		}
		csv = append(csv, c.String())
		var buf bytes.Buffer
		if err := s.Obs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		reg = append(reg, buf.String())
	}
	for i := 1; i < len(md); i++ {
		if md[i] != md[0] {
			t.Fatalf("control-plane figures differ between -parallel 1 and -parallel %d:\n%s",
				levels[i], firstDiffLine(md[0], md[i]))
		}
		if csv[i] != csv[0] {
			t.Fatalf("control-plane CSVs differ between -parallel 1 and -parallel %d:\n%s",
				levels[i], firstDiffLine(csv[0], csv[i]))
		}
		if reg[i] != reg[0] {
			t.Fatalf("merged control-plane metrics differ between -parallel 1 and -parallel %d",
				levels[i])
		}
	}
	checkGolden(t, "fig28_fig29_metrics.json", reg[0])
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "p1: " + al[i] + "\np8: " + bl[i]
		}
	}
	return "(outputs are prefixes of each other)"
}

// TestResultsInInputOrderAndCounted checks ordering, task accounting, and
// the wall/events bookkeeping on a small mixed run (the six-point fig08 and
// the single-point fig20).
func TestResultsInInputOrderAndCounted(t *testing.T) {
	s, err := RunIDs([]string{"fig20", "fig08"}, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 2 || s.Results[0].ID != "fig08" || s.Results[1].ID != "fig20" {
		t.Fatalf("unexpected result order: %+v", s.Results)
	}
	fig08, ok := experiments.ByID("fig08")
	if !ok || len(fig08.Points) < 2 {
		t.Fatal("fig08 should be decomposed")
	}
	if got := s.Results[0].Tasks; got != len(fig08.Points) {
		t.Fatalf("fig08 ran as %d tasks, want %d", got, len(fig08.Points))
	}
	if s.Results[1].Tasks != 1 {
		t.Fatalf("fig20 ran as %d tasks, want 1", s.Results[1].Tasks)
	}
	if s.Events == 0 {
		t.Fatal("no simulation events recorded")
	}
	if s.TaskWall.N() != int64(s.Tasks) {
		t.Fatalf("task-wall samples %d != tasks %d", s.TaskWall.N(), s.Tasks)
	}
	for _, r := range s.Results {
		if r.Wall <= 0 {
			t.Fatalf("%s has no wall time", r.ID)
		}
	}
}

// TestPanicIsolation: a panicking point fails its own experiment and leaves
// the rest of the pool running.
func TestPanicIsolation(t *testing.T) {
	specs := []experiments.Spec{
		{
			ID: "boom", Title: "panics",
			Points: []experiments.Point{
				{Label: "a", Run: func(uint64, *obs.Registry, *sim.Arena) any { return 1 }},
				{Label: "b", Run: func(uint64, *obs.Registry, *sim.Arena) any { panic("kaboom") }},
			},
			Build: func([]any) *report.Figure { return &report.Figure{ID: "boom"} },
		},
		{
			ID: "fine", Title: "works",
			Points: []experiments.Point{
				{Label: "all", Run: func(uint64, *obs.Registry, *sim.Arena) any { return &report.Figure{ID: "fine", Title: "ok"} }},
			},
			Build: func(r []any) *report.Figure { return r[0].(*report.Figure) },
		},
	}
	s := Run(specs, Options{Parallel: 2})
	if s.Results[0].Err == nil || s.Results[0].Figure != nil {
		t.Fatalf("panicking experiment not failed: %+v", s.Results[0])
	}
	if !strings.Contains(s.Results[0].Err.Error(), "kaboom") {
		t.Fatalf("panic message lost: %v", s.Results[0].Err)
	}
	if s.Results[1].Err != nil || s.Results[1].Figure == nil {
		t.Fatalf("healthy experiment affected: %+v", s.Results[1])
	}
	if len(s.Failed()) != 1 {
		t.Fatalf("Failed() = %d entries, want 1", len(s.Failed()))
	}
}

// TestSharedPointRunsOnce: a keyed point that two experiments list runs
// once per Run, led by its first claimant in input order. Every claimant
// gets the leader's result, the merged metrics count the leader's registry
// once per claimant, and a panic in the shared point fails every claimant.
// The points are synthetic, so this runs under -short and -race.
func TestSharedPointRunsOnce(t *testing.T) {
	var runs atomic.Int32
	shared := experiments.Point{Label: "cell", Key: "test/cell", Run: func(seed uint64, reg *obs.Registry, _ *sim.Arena) any {
		runs.Add(1)
		reg.Counter("test.cell_audits").Inc()
		return seed
	}}
	own := experiments.Point{Label: "own", Run: func(uint64, *obs.Registry, *sim.Arena) any { return uint64(0) }}
	got := make([][]any, 2)
	spec := func(i int, points ...experiments.Point) experiments.Spec {
		id := fmt.Sprintf("s%d", i)
		return experiments.Spec{ID: id, Title: id, Points: points, Build: func(r []any) *report.Figure {
			got[i] = r
			return &report.Figure{ID: id}
		}}
	}
	s := Run([]experiments.Spec{spec(0, shared), spec(1, own, shared)}, Options{Parallel: 2})
	for _, r := range s.Results {
		if r.Err != nil || r.Figure == nil {
			t.Fatalf("%s failed: %v", r.ID, r.Err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("shared point ran %d times, want 1", n)
	}
	// The leader is s0's point, so both claimants see s0's seed.
	want := experiments.PointSeed("s0", "cell")
	if got[0][0] != want || got[1][1] != want {
		t.Fatalf("shared results = %v / %v, want the leader's %v", got[0][0], got[1][1], want)
	}
	if s.Tasks != 2 || s.Results[0].Tasks != 1 || s.Results[1].Tasks != 1 || s.TaskWall.N() != 2 {
		t.Fatalf("tasks = %d (%d + %d), task-wall samples %d; want 2 (1 + 1), 2",
			s.Tasks, s.Results[0].Tasks, s.Results[1].Tasks, s.TaskWall.N())
	}
	if n := s.Obs.Counter("test.cell_audits").Value(); n != 2 {
		t.Fatalf("merged test.cell_audits = %d, want one per claimant (2)", n)
	}

	boom := experiments.Point{Label: "cell", Key: "test/boom", Run: func(uint64, *obs.Registry, *sim.Arena) any { panic("kaboom") }}
	s = Run([]experiments.Spec{spec(0, boom), spec(1, own, boom)}, Options{Parallel: 2})
	for _, r := range s.Results {
		if r.Err == nil || r.Figure != nil || !strings.Contains(r.Err.Error(), "kaboom") {
			t.Fatalf("%s: shared panic not reported: err=%v figure=%v", r.ID, r.Err, r.Figure)
		}
	}
}

// TestUnknownID rejects bad ids.
func TestUnknownID(t *testing.T) {
	if _, err := RunIDs([]string{"fig99"}, Options{}); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

// TestPointLabelsUnique guards the seed derivation: within an experiment,
// labels must be unique or two points would share an engine seed.
func TestPointLabelsUnique(t *testing.T) {
	for _, s := range experiments.All() {
		seen := map[string]bool{}
		for _, p := range s.Points {
			if seen[p.Label] {
				t.Errorf("%s: duplicate point label %q", s.ID, p.Label)
			}
			seen[p.Label] = true
		}
	}
}
