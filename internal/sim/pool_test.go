package sim

import "testing"

// TestHandleAliasingAfterRecycle pins the bug class event pooling
// introduces: a handle kept past its event's firing must not alias the
// pool's next occupant of the same storage. Cancelling the stale handle has
// to report false and leave the new schedule untouched.
func TestHandleAliasingAfterRecycle(t *testing.T) {
	e := NewEngine(1)
	firedA := false
	h1 := e.At(10, "a", func() { firedA = true })
	e.Run()
	if !firedA {
		t.Fatal("first event did not fire")
	}
	if h1.Pending() {
		t.Fatal("stale handle still pending after its event fired")
	}
	firedB := false
	h2 := e.At(20, "b", func() { firedB = true })
	if h1.ev != h2.ev {
		t.Fatal("pool did not reuse the recycled event (test premise broken)")
	}
	if h1.gen == h2.gen {
		t.Fatal("recycle did not advance the generation counter")
	}
	if h1.Cancel() {
		t.Fatal("cancelling a stale handle must report false")
	}
	if !h2.Pending() {
		t.Fatal("stale-handle Cancel retracted the new occupant")
	}
	e.Run()
	if !firedB {
		t.Fatal("new occupant did not fire after stale-handle Cancel")
	}
}

// TestCancelledHandleAfterRecycleIsStale covers the cancel-side variant:
// once a cancelled event is reaped by the pop loop and reused, the original
// handle must go inert rather than cancel the reuse.
func TestCancelledHandleAfterRecycleIsStale(t *testing.T) {
	e := NewEngine(1)
	h1 := e.At(10, "a", func() { t.Fatal("cancelled event fired") })
	if !h1.Cancel() {
		t.Fatal("live cancel should succeed")
	}
	e.Run() // the pop loop reaps the cancelled event into the free list
	fired := false
	h2 := e.At(20, "b", func() { fired = true })
	if h1.ev != h2.ev {
		t.Fatal("pool did not reuse the reaped event (test premise broken)")
	}
	if h1.Cancel() || h1.Pending() {
		t.Fatal("handle of a reaped cancellation must be inert")
	}
	if !h2.Pending() {
		t.Fatal("new occupant lost its schedule")
	}
	e.Run()
	if !fired {
		t.Fatal("new occupant did not fire")
	}
}

// TestStopDuringRunPoolConsistency audits a run that stops at its deadline
// against pooling: it must leave every unfired event in the scheduler with
// a live handle and exactly the popped events in the free list, and a
// resumed run must fire the remainder exactly once. This is the guard
// against stale entries resurfacing after pool recycle (see eventHeap.Pop).
func TestStopDuringRunPoolConsistency(t *testing.T) {
	arena := NewArena()
	e := NewEngineArena(1, arena)
	fired := make([]int, 0, 10)
	handles := make([]Handle, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		handles = append(handles, e.At(Time(i+1), "n", func() { fired = append(fired, i) }))
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by the deadline, want 3", len(fired))
	}
	if got := len(arena.free); got != 3 {
		t.Fatalf("free list holds %d events at the deadline, want the 3 fired", got)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d at the deadline, want 7", e.Pending())
	}
	for i, h := range handles {
		if want := i >= 3; h.Pending() != want {
			t.Fatalf("handle %d pending = %v, want %v", i, h.Pending(), want)
		}
	}
	// No recycled event may still sit in the scheduler.
	inSched := map[*event]bool{}
	e.sched.forEach(func(ev *event) { inSched[ev] = true })
	for _, ev := range arena.free {
		if inSched[ev] {
			t.Fatal("recycled event still referenced by the scheduler")
		}
	}
	e.Run()
	if len(fired) != 10 {
		t.Fatalf("resumed run fired %d total, want 10", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("events fired out of order or twice: %v", fired)
		}
	}
	if got := len(arena.free); got != 10 {
		t.Fatalf("free list holds %d events after drain, want 10", got)
	}
}

// TestArenaSharedAcrossEngines models the runner's per-worker reuse: a
// second engine on the same arena must schedule out of the first engine's
// recycled storage, and an abandoned engine's still-pending events must
// never leak into the shared free list.
func TestArenaSharedAcrossEngines(t *testing.T) {
	arena := NewArena()
	e1 := NewEngineArena(1, arena)
	for i := 0; i < 5; i++ {
		e1.At(Time(i), "a", func() {})
	}
	e1.At(100, "abandoned", func() { t.Fatal("must not fire") })
	e1.RunUntil(10) // drains the 5, abandons the one at t=100
	if got := len(arena.free); got != 5 {
		t.Fatalf("free list = %d, want 5 (abandoned event must stay out)", got)
	}
	e2 := NewEngineArena(2, arena)
	n := 0
	for i := 0; i < 5; i++ {
		e2.At(Time(i), "b", func() { n++ })
	}
	if got := len(arena.free); got != 0 {
		t.Fatalf("second engine did not reuse pooled events: %d left", got)
	}
	e2.Run()
	if n != 5 {
		t.Fatalf("second engine fired %d, want 5", n)
	}
}

// TestPoolingDisabledEquivalence checks the unpooled reference path keeps
// scheduling and handle semantics identical — only reuse is turned off.
func TestPoolingDisabledEquivalence(t *testing.T) {
	e := NewEngine(1)
	e.pooling = false
	fired := false
	h1 := e.At(10, "a", func() { fired = true })
	e.Run()
	if !fired || h1.Pending() || h1.Cancel() {
		t.Fatal("unpooled handle semantics diverged")
	}
	h2 := e.At(20, "b", func() {})
	if h1.ev == h2.ev {
		t.Fatal("pooling disabled but event storage was reused")
	}
	if !h2.Cancel() {
		t.Fatal("live cancel failed with pooling off")
	}
}

// TestScheduleFireRecycleZeroAlloc asserts the tentpole property at the
// engine level: a steady-state schedule→fire→recycle cycle performs zero
// heap allocations once the arena and heap are warm.
func TestScheduleFireRecycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs AllocsPerRun")
	}
	e := NewEngine(1)
	n := 0
	fn := func() { n++ }
	// Warm the heap slice and free list.
	for i := 0; i < 64; i++ {
		e.After(1, "warm", fn)
	}
	e.Run()
	const name = "steady"
	allocs := testing.AllocsPerRun(1000, func() {
		h := e.After(1, name, fn)
		e.After(2, name, fn)
		h.Cancel()
		e.RunUntil(e.Now() + 3)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/fire/recycle allocates %.1f/op, want 0", allocs)
	}
}
