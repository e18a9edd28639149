package sim

import (
	"testing"

	"repro/internal/units"
)

// Pending reports whether a firing is currently scheduled.
func (t *Trigger) Pending() bool { return t.handle.Pending() }

// Cancel retracts a pending firing. It reports whether one was pending.
func (t *Trigger) Cancel() bool { return t.handle.Cancel() }

func TestTriggerCoalescesSameInstantFires(t *testing.T) {
	eng := NewEngine(1)
	runs := 0
	tr := NewTrigger(eng, "recompute", func() { runs++ })

	eng.At(units.Time(10*units.Microsecond), "poke", func() {
		if !tr.Fire() {
			t.Error("first Fire should schedule")
		}
		if tr.Fire() {
			t.Error("second same-instant Fire should coalesce")
		}
		if !tr.Pending() {
			t.Error("trigger should be pending after Fire")
		}
	})
	eng.RunUntil(units.Time(units.Millisecond))
	if runs != 1 {
		t.Fatalf("coalesced fires ran %d times, want 1", runs)
	}

	// After the callback ran the trigger re-arms cleanly.
	eng.At(eng.Now().Add(units.Microsecond), "poke2", func() { tr.Fire() })
	eng.RunUntil(eng.Now().Add(units.Millisecond))
	if runs != 2 {
		t.Fatalf("re-armed trigger ran %d times, want 2", runs)
	}
	if tr.Pending() {
		t.Error("trigger should not be pending after firing")
	}
}

func TestTriggerCancel(t *testing.T) {
	eng := NewEngine(1)
	runs := 0
	tr := NewTrigger(eng, "recompute", func() { runs++ })

	eng.At(units.Time(5*units.Microsecond), "arm", func() {
		tr.Fire()
		if !tr.Cancel() {
			t.Error("Cancel of a pending trigger should report true")
		}
		if tr.Pending() {
			t.Error("cancelled trigger should not be pending")
		}
		if tr.Cancel() {
			t.Error("double Cancel should report false")
		}
	})
	eng.RunUntil(units.Time(units.Millisecond))
	if runs != 0 {
		t.Fatalf("cancelled trigger ran %d times, want 0", runs)
	}
}

func TestTriggerFiresAtCurrentInstant(t *testing.T) {
	eng := NewEngine(1)
	var firedAt units.Time
	tr := NewTrigger(eng, "now", func() { firedAt = eng.Now() })
	at := units.Time(42 * units.Microsecond)
	eng.At(at, "arm", func() { tr.Fire() })
	eng.RunUntil(units.Time(units.Millisecond))
	if firedAt != at {
		t.Fatalf("trigger fired at %v, want %v", firedAt, at)
	}
}
