package runner

import (
	"bytes"
	"encoding/json"
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

var update = flag.Bool("update", false, "rewrite the goldens: every figure CSV, suite.md, suite_metrics.json and sim_events.txt")

// checkGolden compares an artifact with testdata/golden/<name>, the
// byte-for-byte output of a serial run that the suite is pinned to;
// -update rewrites it.
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

// suiteMarkdown renders a run the way sriovsim -all prints it: every
// figure's markdown and a blank line, in order.
func suiteMarkdown(t *testing.T, s *Summary) string {
	t.Helper()
	var b strings.Builder
	for _, r := range s.Results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		b.WriteString(r.Figure.Markdown())
		b.WriteByte('\n')
	}
	return b.String()
}

func firstDiffLine(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
		}
	}
	return "(outputs are prefixes of each other)"
}

// TestSuiteMatchesGoldens is the one full-suite pass: every registered
// experiment runs once, at -parallel 8. Under checks/<id> each must
// produce at least one series and one shape check, pass every check, and
// render a complete markdown report; under csv/<id> its CSV, and then the
// suite markdown, the merged metrics registry and the number of simulation
// events the suite executed, must match byte for byte the goldens recorded
// at -parallel 1. The goldens being serial is what makes this pass the
// full-suite serial ≡ parallel gate as well.
func TestSuiteMatchesGoldens(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the full suite is slow; -short and race runs keep the determinism subset")
	}
	s := Run(experiments.All(), Options{Parallel: 8})
	t.Run("checks", func(t *testing.T) {
		for _, r := range s.Results {
			t.Run(r.ID, func(t *testing.T) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				f := r.Figure
				if len(f.Series) == 0 || len(f.Checks) == 0 {
					t.Fatalf("%d series and %d shape checks, want at least one of each", len(f.Series), len(f.Checks))
				}
				for _, c := range f.FailedChecks() {
					t.Errorf("shape check %s failed — %s", c.Name, c.Detail)
				}
				md := f.Markdown()
				for _, want := range []string{"Paper reports:", "Measured:", "Shape checks:"} {
					if !strings.Contains(md, want) {
						t.Errorf("markdown missing %q", want)
					}
				}
			})
		}
	})
	t.Run("csv", func(t *testing.T) {
		for _, r := range s.Results {
			t.Run(r.ID, func(t *testing.T) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				checkGolden(t, r.ID+".csv", r.Figure.CSV())
			})
		}
	})
	t.Run("suite.md", func(t *testing.T) {
		checkGolden(t, "suite.md", suiteMarkdown(t, s))
	})
	t.Run("suite_metrics.json", func(t *testing.T) {
		var buf bytes.Buffer
		if err := s.Obs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "suite_metrics.json", buf.String())
	})
	t.Run("sim_events.txt", func(t *testing.T) {
		checkGolden(t, "sim_events.txt", fmt.Sprintf("%d\n", s.Events))
	})
}

// fastIDs complete in well under a second each.
var fastIDs = []string{"extrr", "fig07", "fig08", "fig09", "fig10", "fig20", "fig21"}

// TestFastFigures runs each fast experiment alone through a serial runner,
// in every mode: it must pass every shape check, render a complete
// markdown report, and leave in its merged registry what its simulations
// counted — VM exits, and an invariant audit that found nothing.
func TestFastFigures(t *testing.T) {
	for _, id := range fastIDs {
		t.Run(id, func(t *testing.T) {
			s, err := RunIDs([]string{id}, Options{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			r := s.Results[0]
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			f := r.Figure
			if f.ID != id {
				t.Fatalf("figure id = %s", f.ID)
			}
			if len(f.Series) == 0 || len(f.Checks) == 0 {
				t.Fatalf("%d series and %d shape checks, want at least one of each", len(f.Series), len(f.Checks))
			}
			for _, c := range f.FailedChecks() {
				t.Errorf("shape check %s failed — %s", c.Name, c.Detail)
			}
			md := f.Markdown()
			for _, want := range []string{"Paper reports:", "Measured:", "Shape checks:"} {
				if !strings.Contains(md, want) {
					t.Errorf("markdown missing %q", want)
				}
			}
			if n := s.Obs.SumCounters("vmm.exits.", ""); n <= 0 {
				t.Errorf("merged vmm.exits.* = %d, want > 0", n)
			}
			var snap struct{ Counters map[string]int64 }
			var buf bytes.Buffer
			if err := s.Obs.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
				t.Fatal(err)
			}
			if v, ok := snap.Counters["chaos.invariant_violations"]; !ok || v != 0 {
				t.Errorf("merged chaos.invariant_violations = %d (registered %v), want registered at 0", v, ok)
			}
		})
	}
}

// determinismIDs is a fast subset of the suite, small enough for -short
// and the race detector.
var determinismIDs = []string{"fig07", "fig08", "fig09", "fig10", "fig20", "fig21"}

// TestDeterminismAcrossParallelism runs the determinism subset at
// -parallel 1 and -parallel 8 in every mode: the two legs share nothing,
// yet must render byte-identical markdown, and both legs' CSVs must match
// the serial goldens.
func TestDeterminismAcrossParallelism(t *testing.T) {
	s1, err := RunIDs(determinismIDs, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	s8, err := RunIDs(determinismIDs, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if md1, md8 := suiteMarkdown(t, s1), suiteMarkdown(t, s8); md1 != md8 {
		t.Fatalf("output differs between -parallel 1 (want) and -parallel 8 (got):\n%s", firstDiffLine(md1, md8))
	}
	for _, s := range []*Summary{s1, s8} {
		for _, r := range s.Results {
			checkGolden(t, r.ID+".csv", r.Figure.CSV())
		}
	}
}

// TestSteadyStateRoundTripAllocationFree pins the allocation claim
// underneath the pooled hot path where the arenas are owned: once a
// worker's arena has warmed up, a steady-state schedule→fire→recycle round
// trip heap-allocates nothing at all.
func TestSteadyStateRoundTripAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under the race detector's shadow allocations")
	}
	eng := sim.NewEngineArena(1, sim.NewArena())
	fired := 0
	tick := func() { fired++ }
	for i := 0; i < 64; i++ {
		eng.After(1, "runner:warm", tick)
	}
	eng.RunUntil(sim.Forever)
	if avg := testing.AllocsPerRun(1000, func() {
		eng.After(1, "runner:steady", tick)
		eng.RunUntil(sim.Forever)
	}); avg != 0 {
		t.Fatalf("steady-state schedule→fire→recycle allocates %.1f allocs/op, want 0", avg)
	}
}

// TestResultsInInputOrderAndCounted checks ordering and the run's
// bookkeeping on a small mixed run (the six-point fig08 and the
// single-point fig20): results come back in sorted id order, every point
// runs exactly once, and the run counts its simulation events.
func TestResultsInInputOrderAndCounted(t *testing.T) {
	specs, err := Specs([]string{"fig20", "fig08"})
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]atomic.Int32, len(specs))
	for i := range specs {
		points := make([]experiments.Point, len(specs[i].Points))
		for j, p := range specs[i].Points {
			run := p.Run
			p.Run = func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
				runs[i].Add(1)
				return run(seed, reg, arena)
			}
			points[j] = p
		}
		specs[i].Points = points
	}
	s := Run(specs, Options{Parallel: 4})
	if len(s.Results) != 2 || s.Results[0].ID != "fig08" || s.Results[1].ID != "fig20" {
		t.Fatalf("unexpected result order: %+v", s.Results)
	}
	if len(specs[0].Points) < 2 {
		t.Fatal("fig08 should be decomposed")
	}
	for i, r := range s.Results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if got, want := int(runs[i].Load()), len(specs[i].Points); got != want {
			t.Fatalf("%s ran %d points, want %d", r.ID, got, want)
		}
	}
	if s.Events == 0 {
		t.Fatal("no simulation events recorded")
	}
}

// TestEventsCountsEveryPointOnce checks Summary.Events is the sum of the
// events the points' engines executed on their workers' arenas: exact, and
// the same at any parallelism. A point that leaves events pending, or
// builds an engine on a private arena, contributes only what ran on the
// worker's arena.
func TestEventsCountsEveryPointOnce(t *testing.T) {
	point := func(n int) experiments.Point {
		return experiments.Point{Label: fmt.Sprint(n), Run: func(seed uint64, _ *obs.Registry, arena *sim.Arena) any {
			e := sim.NewEngineArena(seed, arena)
			for i := 0; i < n; i++ {
				e.After(sim.Duration(i)*1000, "tick", func() {})
			}
			e.RunUntil(sim.Time(n/2) * 1000) // half of them stay pending
			private := sim.NewEngine(seed)
			private.After(1, "elsewhere", func() {})
			private.RunUntil(sim.Forever)
			return nil
		}}
	}
	spec := experiments.Spec{ID: "count", Title: "count",
		Points: []experiments.Point{point(10), point(21), point(4), point(1)},
		Build:  func([]any) *report.Figure { return &report.Figure{ID: "count"} }}
	const want = 6 + 11 + 3 + 1 // events at or before each point's deadline
	for _, workers := range []int{1, 3} {
		if got := Run([]experiments.Spec{spec}, Options{Parallel: workers}).Events; got != want {
			t.Fatalf("parallel %d: Events = %d, want %d", workers, got, want)
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
// once, and a panic in the shared point fails every claimant.
// The points are synthetic, so this runs under -short and -race.
func TestSharedPointRunsOnce(t *testing.T) {
	var runs, ownRuns atomic.Int32
	shared := experiments.Point{Label: "cell", Key: "test/cell", Run: func(seed uint64, reg *obs.Registry, _ *sim.Arena) any {
		runs.Add(1)
		reg.Counter("test.cell_audits").Inc()
		return seed
	}}
	own := experiments.Point{Label: "own", Run: func(uint64, *obs.Registry, *sim.Arena) any {
		ownRuns.Add(1)
		return uint64(0)
	}}
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
	if n, m := runs.Load(), ownRuns.Load(); n != 1 || m != 1 {
		t.Fatalf("shared point ran %d times and unshared point %d, want 1 each", n, m)
	}
	// The leader is s0's point, so both claimants see s0's seed.
	want := experiments.PointSeed("s0", "cell")
	if got[0][0] != want || got[1][1] != want {
		t.Fatalf("shared results = %v / %v, want the leader's %v", got[0][0], got[1][1], want)
	}
	if n := s.Obs.Counter("test.cell_audits").Value(); n != 1 {
		t.Fatalf("merged test.cell_audits = %d, want the one run's (1)", n)
	}

	boom := experiments.Point{Label: "cell", Key: "test/boom", Run: func(uint64, *obs.Registry, *sim.Arena) any { panic("kaboom") }}
	s = Run([]experiments.Spec{spec(0, boom), spec(1, own, boom)}, Options{Parallel: 2})
	for _, r := range s.Results {
		if r.Err == nil || r.Figure != nil || !strings.Contains(r.Err.Error(), "kaboom") {
			t.Fatalf("%s: shared panic not reported: err=%v figure=%v", r.ID, r.Err, r.Figure)
		}
	}
}

// TestUnknownID rejects a bad id with an error that names every valid one.
func TestUnknownID(t *testing.T) {
	_, err := RunIDs([]string{"fig99"}, Options{})
	if err == nil {
		t.Fatal("expected error for unknown id")
	}
	for _, s := range experiments.All() {
		if !strings.Contains(err.Error(), s.ID) {
			t.Errorf("error %q does not list valid id %s", err, s.ID)
		}
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
