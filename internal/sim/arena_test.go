package sim

import (
	"testing"

	"repro/internal/units"
)

// TestArenaDoublePutDetected exercises the pool-integrity tripwire: a
// second put of the same event must be counted and refused (the free list
// must not grow), and a normal get/put cycle must stay clean.
func TestArenaDoublePutDetected(t *testing.T) {
	a := NewArena()
	ev := a.get() // fresh allocation, not pooled
	a.put(ev)
	if got := a.Corruptions(); got != 0 {
		t.Fatalf("clean put: corruptions = %d, want 0", got)
	}
	if len(a.free) != 1 {
		t.Fatalf("free list length = %d, want 1", len(a.free))
	}
	a.put(ev) // double recycle
	if got := a.Corruptions(); got != 1 {
		t.Fatalf("double put: corruptions = %d, want 1", got)
	}
	if len(a.free) != 1 {
		t.Fatalf("double put grew the free list: length = %d, want 1", len(a.free))
	}
	// The event can still be reused cleanly after the refused double-put.
	ev2 := a.get()
	if ev2 != ev {
		t.Fatalf("get did not return the pooled event")
	}
	a.put(ev2)
	if got := a.Corruptions(); got != 1 {
		t.Fatalf("post-recovery cycle: corruptions = %d, want 1", got)
	}
}

// TestArenaGetUnpooledDetected covers the mirror-image failure: a free-list
// occupant that lost its pooled mark (a second owner cleared or reused it)
// is counted when popped.
func TestArenaGetUnpooledDetected(t *testing.T) {
	a := NewArena()
	ev := &event{}
	a.free = append(a.free, ev) // bypass put: simulates an aliased entry
	if got := a.get(); got != ev {
		t.Fatalf("get did not return the planted event")
	}
	if got := a.Corruptions(); got != 1 {
		t.Fatalf("unpooled get: corruptions = %d, want 1", got)
	}
}

// TestEngineArenaAccessor checks engines expose the arena they schedule out
// of — shared or private — so checkers can read its corruption count.
func TestEngineArenaAccessor(t *testing.T) {
	shared := NewArena()
	e := NewEngineArena(1, shared)
	if e.Arena() != shared {
		t.Fatalf("Arena() did not return the shared arena")
	}
	e2 := NewEngine(2)
	if e2.Arena() == nil {
		t.Fatalf("private arena not exposed")
	}
	e2.After(1, "x", func() {})
	e2.Run()
	if got := e2.Arena().Corruptions(); got != 0 {
		t.Fatalf("healthy run: corruptions = %d, want 0", got)
	}
}

// TestArenaCountsExecutedEvents checks the arena counts the events every
// engine drawing on it executes — and only those: cancelled events are
// reaped, not executed, and an engine on another arena counts elsewhere.
func TestArenaCountsExecutedEvents(t *testing.T) {
	shared := NewArena()
	a, b := NewEngineArena(1, shared), NewEngineArena(2, shared)
	other := NewEngine(3)
	for i := 0; i < 10; i++ {
		a.After(Duration(i), "a", func() {})
		b.After(Duration(i)*units.Microsecond, "b", func() {})
		other.After(Duration(i), "other", func() {})
	}
	b.After(5, "cancelled", func() {}).Cancel()
	a.Run()
	b.RunUntil(Time(4 * units.Microsecond))
	if got, want := shared.Executed(), a.Processed()+b.Processed(); got != want || got != 15 {
		t.Fatalf("shared arena executed = %d, want %d = 15", got, want)
	}
	b.Run()
	other.Run()
	if got := shared.Executed(); got != 20 {
		t.Fatalf("shared arena executed = %d after both drained, want 20", got)
	}
	if got := other.Arena().Executed(); got != 10 {
		t.Fatalf("private arena executed = %d, want 10", got)
	}
}
