package experiments

import (
	"strings"
	"testing"

	"repro/internal/units"
)

// fastFigures complete in well under a second each. The whole suite runs
// once, against its goldens, in internal/runner's TestSuiteMatchesGoldens.
var fastFigures = []string{"extrr", "fig07", "fig08", "fig09", "fig10", "fig20", "fig21"}

func runAndAssert(t *testing.T, id string) {
	t.Helper()
	s, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	f := s.Run()
	if f.ID != id {
		t.Fatalf("figure id = %s", f.ID)
	}
	if len(f.Series) == 0 {
		t.Fatal("no series")
	}
	if len(f.Checks) == 0 {
		t.Fatal("no shape checks")
	}
	for _, c := range f.FailedChecks() {
		t.Errorf("%s: %s — %s", id, c.Name, c.Detail)
	}
	// The markdown report must render the reference and the table.
	md := f.Markdown()
	for _, want := range []string{"Paper reports:", "Measured:", "Shape checks:"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestFastFigures(t *testing.T) {
	for _, id := range fastFigures {
		id := id
		t.Run(id, func(t *testing.T) { runAndAssert(t, id) })
	}
}

func TestRegistryAndHelpers(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id should miss")
	}
	// perPortRate splits the aggregate evenly.
	if got := perPortRate(10, 10); got.Mbps() != 957 {
		t.Fatalf("perPortRate(10,10) = %v", got)
	}
	if got := perPortRate(60, 10); got.Mbps() < 159 || got.Mbps() > 160 {
		t.Fatalf("perPortRate(60,10) = %v", got)
	}
	// Policies construct.
	if dynamicPolicy() == nil || aicPolicy() == nil {
		t.Fatal("policy constructors")
	}
}

func TestOutageWindowHelper(t *testing.T) {
	s := newSeries(100 * units.Millisecond)
	// Full rate everywhere except two outages: [0.5,0.8) and [1.2,1.4).
	full := 957e6 / 8 * 0.1 // bytes per full bucket
	for i := 0; i < 20; i++ {
		tm := units.Time(int64(i) * int64(100*units.Millisecond))
		v := full
		if i >= 5 && i < 8 || i >= 12 && i < 14 {
			v = 0
		}
		s.Add(tm, v)
	}
	start, end := outageWindow(s, 0)
	if start != 500*units.Millisecond || end != 800*units.Millisecond {
		t.Fatalf("first outage = [%v, %v]", start, end)
	}
	start, end = outageWindow(s, units.Second)
	if start != 1200*units.Millisecond || end != 1400*units.Millisecond {
		t.Fatalf("second outage = [%v, %v]", start, end)
	}
	// No outage after 1.5 s.
	start, end = outageWindow(s, 1500*units.Millisecond)
	if start != 0 || end != 0 {
		t.Fatalf("phantom outage = [%v, %v]", start, end)
	}
	// Goodput helper: full bucket ≈ 957 Mbps.
	if got := goodputMbpsAt(s, 100*units.Millisecond); got < 956 || got > 958 {
		t.Fatalf("goodputMbpsAt = %v", got)
	}
}

func TestSingleBucketDipIgnored(t *testing.T) {
	s := newSeries(100 * units.Millisecond)
	full := 1e7
	for i := 0; i < 10; i++ {
		v := full
		if i == 4 {
			v = 0 // one-bucket blip
		}
		s.Add(units.Time(int64(i)*int64(100*units.Millisecond)), v)
	}
	if start, end := outageWindow(s, 0); start != 0 || end != 0 {
		t.Fatalf("blip treated as outage: [%v, %v]", start, end)
	}
}
