package obs

import (
	"testing"

	"repro/internal/units"
)

func TestEmitAndEvents(t *testing.T) {
	tr := NewTrace(4, 0)
	for i := 0; i < 3; i++ {
		tr.Emitf(units.Time(i), "cat", "name", "")
	}
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d", len(ev))
	}
	for i, e := range ev {
		if e.At != units.Time(i) {
			t.Fatalf("order broken: %v", ev)
		}
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Emitf(0, "c", "n", "")
	tr.Emitf(0, "c", "n", "x=%d", 1)
	tr.AddSpan("t", "n", 0, 1)
	if tr.Events() != nil || tr.Spans() != nil {
		t.Fatal("nil trace must be inert")
	}
	if tr.Filter("x") != nil {
		t.Fatal("nil filter chain")
	}
}

// TestRingWraps covers both of a trace's rings: each keeps its most recent
// capacity entries, oldest first, and a zero-capacity ring keeps nothing.
func TestRingWraps(t *testing.T) {
	emit := func(tr *Trace, i int) { tr.Emitf(units.Time(i), "c", "n", "") }
	span := func(tr *Trace, i int) { tr.AddSpan("q", "hop", units.Time(i), units.Duration(i)) }
	events := func(tr *Trace) []units.Time {
		var at []units.Time
		for _, e := range tr.Events() {
			at = append(at, e.At)
		}
		return at
	}
	spans := func(tr *Trace) []units.Time {
		var at []units.Time
		for _, s := range tr.Spans() {
			at = append(at, s.Start)
		}
		return at
	}
	for _, tc := range []struct {
		name            string
		events, spans   int
		n               int
		add             func(*Trace, int)
		read, untouched func(*Trace) []units.Time
		want            []units.Time
	}{
		{"events", 3, 3, 7, emit, events, spans, []units.Time{4, 5, 6}},
		{"spans", 3, 3, 5, span, spans, events, []units.Time{2, 3, 4}},
		{"events-off", 0, 3, 4, emit, events, spans, nil},
		{"spans-off", 3, 0, 4, span, spans, events, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTrace(tc.events, tc.spans)
			for i := 0; i < tc.n; i++ {
				tc.add(tr, i)
			}
			got := tc.read(tr)
			if len(got) != len(tc.want) {
				t.Fatalf("retained %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("ring order: %v, want %v", got, tc.want)
				}
			}
			if other := tc.untouched(tr); len(other) != 0 {
				t.Fatalf("the other ring recorded %v", other)
			}
		})
	}
}

func TestFilter(t *testing.T) {
	tr := NewTrace(8, 0).Filter("keep")
	tr.Emitf(1, "keep", "a", "")
	tr.Emitf(2, "drop", "b", "")
	if len(tr.Events()) != 1 || tr.Events()[0].Category != "keep" {
		t.Fatalf("filter failed: %v", tr.Events())
	}
	tr.Filter() // clear
	tr.Emitf(3, "drop", "c", "")
	if len(tr.Events()) != 2 {
		t.Fatal("cleared filter should record everything")
	}
}

func TestEventString(t *testing.T) {
	tr := NewTrace(8, 0)
	tr.Emitf(units.Time(units.Second), "irq", "bind", "vector=%d", 34)
	tr.Emitf(units.Time(2*units.Second), "hotplug", "remove", "")
	ev := tr.Events()
	if got := ev[0].String(); got != "[1.000s] irq: bind (vector=34)" {
		t.Fatalf("with detail: %q", got)
	}
	if got := ev[1].String(); got != "[2.000s] hotplug: remove" {
		t.Fatalf("without detail: %q", got)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	for _, caps := range [][2]int{{-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacities %v should panic", caps)
				}
			}()
			NewTrace(caps[0], caps[1])
		}()
	}
}

// TestRingWrapWithFilter covers the wraparound × Filter interaction: events
// recorded before a filter is installed must survive (in Events() order)
// until overwritten, and filtered-out events must not occupy the ring.
func TestRingWrapWithFilter(t *testing.T) {
	tr := NewTrace(4, 0)
	tr.Emitf(1, "early", "e1", "")
	tr.Emitf(2, "early", "e2", "")
	tr.Filter("keep")
	// Filtered-out categories neither occupy the ring nor count.
	tr.Emitf(3, "drop", "d1", "")
	tr.Emitf(4, "drop", "d2", "x=%d", 1)
	tr.Emitf(5, "keep", "k1", "")
	tr.Emitf(6, "keep", "k2", "")
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, events %v", len(ev), ev)
	}
	for i, want := range []string{"e1", "e2", "k1", "k2"} {
		if ev[i].Name != want {
			t.Fatalf("order: got %v", ev)
		}
	}
	// One more recorded event wraps the ring: the oldest pre-filter event
	// is overwritten, the remaining pre-filter event survives in order.
	// Had the two filtered events counted, e2 would be gone too.
	tr.Emitf(7, "keep", "k3", "")
	ev = tr.Events()
	if len(ev) != 4 || ev[0].Name != "e2" || ev[3].Name != "k3" {
		t.Fatalf("after wrap: %v", ev)
	}
}

// TestEmitfFilteredZeroAllocs is the regression test for the eager-Sprintf
// bug: a filtered-out Emitf must not pay the formatting allocation.
func TestEmitfFilteredZeroAllocs(t *testing.T) {
	tr := NewTrace(8, 0).Filter("keep")
	allocs := testing.AllocsPerRun(100, func() {
		tr.Emitf(0, "dropped", "n", "no interpolation here")
	})
	if allocs != 0 {
		t.Fatalf("filtered-out Emitf allocated %.0f times per call, want 0", allocs)
	}
	var nilTrace *Trace
	allocs = testing.AllocsPerRun(100, func() {
		nilTrace.Emitf(0, "any", "n", "no interpolation here")
	})
	if allocs != 0 {
		t.Fatalf("nil-trace Emitf allocated %.0f times per call, want 0", allocs)
	}
}

// BenchmarkEmitfFilteredOut shows the filtered-out fast path: 0 allocs/op.
func BenchmarkEmitfFilteredOut(b *testing.B) {
	tr := NewTrace(8, 0).Filter("keep")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emitf(0, "dropped", "n", "no interpolation here")
	}
}

// BenchmarkEmitfRecorded is the recorded path for comparison.
func BenchmarkEmitfRecorded(b *testing.B) {
	tr := NewTrace(8, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emitf(0, "keep", "n", "x=%d", i&255)
	}
}
