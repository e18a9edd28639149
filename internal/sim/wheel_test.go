package sim

import (
	"fmt"
	"testing"

	"repro/internal/units"
)

// wheelSpan is the horizon covered by all wheel levels: events at or past
// base+wheelSpan can only live in the overflow heap.
const wheelSpan = Time(1) << (wheelBits * wheelLevels)

// wheelOf digs the timer wheel out of an engine for white-box assertions.
func wheelOf(t *testing.T, e *Engine) *timerWheel {
	t.Helper()
	w, ok := e.sched.(*timerWheel)
	if !ok {
		t.Fatalf("engine scheduler is %T, want *timerWheel", e.sched)
	}
	return w
}

// TestWheelFarFutureOverflowCascade proves the overflow path end to end: an
// event beyond the wheel span waits in the overflow heap, rejoins the wheel
// as the cursor approaches, and still fires at its exact time in order with
// near-term traffic.
func TestWheelFarFutureOverflowCascade(t *testing.T) {
	e := NewEngine(1)
	w := wheelOf(t, e)
	var got []Time
	record := func() { got = append(got, e.Now()) }
	far := wheelSpan + 12345 // beyond the span from base=0
	e.At(far, "watchdog", record)
	if len(w.overflow) != 1 {
		t.Fatalf("far-future event not in overflow heap (len=%d)", len(w.overflow))
	}
	e.At(10, "near", record)
	e.At(far-1, "almost", record)
	e.Run()
	want := []Time{10, far - 1, far}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if len(w.overflow) != 0 {
		t.Fatalf("overflow heap still holds %d events after drain", len(w.overflow))
	}
}

// TestWheelScheduleAtExactDeadline covers the parked-cursor seam: a
// deadline-bounded run leaves the wheel's base on the next future event, and
// schedules at or before the deadline made between runs (legal: when ==
// Now()) must still fire, in time order, before that future event.
func TestWheelScheduleAtExactDeadline(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	record := func() { got = append(got, e.Now()) }
	e.At(100, "future", record)
	e.RunUntil(50) // parks the wheel cursor on the event at 100
	e.At(50, "at-deadline", record)
	e.At(75, "mid", record)
	e.At(100, "same-tick", record)
	e.Run()
	want := []Time{50, 75, 100, 100}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestWheelCancelThenReuseAcrossCascade checks generation-safe handles when
// the cancelled event's storage travels through a cascade: cancel a
// higher-level resident, let the pool reap and reuse it, and make sure the
// stale handle stays inert while the new occupant (in a different wheel
// slot) fires exactly once.
func TestWheelCancelThenReuseAcrossCascade(t *testing.T) {
	arena := NewArena()
	e := NewEngineArena(1, arena)
	// 20000 ticks from base lands above level 0 (64 ticks) and level 1
	// (4096 ticks): the event must cascade at least twice to fire.
	h1 := e.At(20000, "victim", func() { t.Fatal("cancelled event fired") })
	if !h1.Cancel() {
		t.Fatal("live cancel failed")
	}
	// Run past the cancelled event's time: the pop loop cascades it down,
	// reaps it, and recycles its storage into the arena free list.
	e.RunUntil(30000)
	if got := len(arena.free); got != 1 {
		t.Fatalf("free list = %d after reap, want 1", got)
	}
	fired := 0
	h2 := e.At(50000, "reuse", func() { fired++ })
	if h1.ev != h2.ev {
		t.Fatal("pool did not reuse the reaped event (test premise broken)")
	}
	if h1.Cancel() || h1.Pending() {
		t.Fatal("stale handle must be inert after its event was reaped")
	}
	if !h2.Pending() {
		t.Fatal("new occupant lost its schedule")
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("new occupant fired %d times, want 1", fired)
	}
}

// TestWheelStopMidBucketDrainPoolConsistency mirrors pool_test.go's
// deadline audit for the wheel's same-tick batch drain. A deadline cannot
// split a same-instant bucket, but the event limit can: a run that trips it
// in the middle of the bucket must leave the undrained suffix live
// (handles pending, no recycled event still referenced), and a resumed run
// must fire the remainder in FIFO order. The event that tripped the limit
// is recycled unfired.
func TestWheelStopMidBucketDrainPoolConsistency(t *testing.T) {
	arena := NewArena()
	e := NewEngineArena(1, arena)
	fired := make([]int, 0, 10)
	handles := make([]Handle, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		handles = append(handles, e.At(5, "burst", func() { fired = append(fired, i) }))
	}
	e.limit = 3
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("event limit should panic")
			}
		}()
		e.Run()
	}()
	if len(fired) != 3 {
		t.Fatalf("fired %d events before the limit, want 3", len(fired))
	}
	if got := len(arena.free); got != 4 {
		t.Fatalf("free list holds %d events after the limit, want the 3 fired and the 1 that tripped it", got)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d after the limit, want 6", e.Pending())
	}
	for i, h := range handles {
		if want := i >= 4; h.Pending() != want {
			t.Fatalf("handle %d pending = %v, want %v", i, h.Pending(), want)
		}
	}
	inSched := map[*event]bool{}
	e.sched.forEach(func(ev *event) { inSched[ev] = true })
	for _, ev := range arena.free {
		if inSched[ev] {
			t.Fatal("recycled event still referenced by the wheel")
		}
	}
	e.limit = 0
	e.Run()
	if want := []int{0, 1, 2, 4, 5, 6, 7, 8, 9}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("same-tick bucket fired %v, want %v in FIFO order", fired, want)
	}
	if got := len(arena.free); got != 10 {
		t.Fatalf("free list holds %d events after drain, want 10", got)
	}
}

// TestWheelSteadyStateZeroAlloc asserts the PR 5 zero-allocation property
// holds for the wheel hot path at a realistic cadence: 12 µs inter-event
// gaps walk every level-1/-2 slot and cascade continuously, and once the
// bucket slices and free list are warm a schedule→cascade→fire→recycle
// cycle must not allocate.
func TestWheelSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs AllocsPerRun")
	}
	e := NewEngine(1)
	n := 0
	fn := func() { n++ }
	const gap = Duration(12 * units.Microsecond)
	// Warm every slot's bucket capacity across the levels the cadence
	// touches (level 2 wraps once per ~2.6e5 ticks; 10k events at 12k-tick
	// spacing wrap it hundreds of times).
	for i := 0; i < 10000; i++ {
		e.After(gap, "warm", fn)
		e.RunUntil(e.Now().Add(gap))
	}
	const name = "steady"
	allocs := testing.AllocsPerRun(1000, func() {
		h := e.After(gap, name, fn)
		e.After(2*gap, name, fn)
		h.Cancel()
		e.RunUntil(e.Now().Add(3 * gap))
	})
	if allocs != 0 {
		t.Fatalf("wheel steady state allocates %.1f/op, want 0", allocs)
	}
}
