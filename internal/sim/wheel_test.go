package sim

import (
	"fmt"
	"testing"

	"repro/internal/units"
)

// tick is the width of a level-0 slot, and wheelSpan the horizon covered by
// all wheel levels: events at or past base+wheelSpan can only live in the
// overflow heap.
const (
	tick      = Time(1) << tickShift
	wheelSpan = tick << (wheelBits * wheelLevels)
)

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
// deadline-bounded run leaves the wheel's base on the next future event's
// tick, and schedules at or before the deadline made between runs (legal:
// when == Now()) land in earlier ticks — the early heap — and must still
// fire, in time order, before that future event.
func TestWheelScheduleAtExactDeadline(t *testing.T) {
	e := NewEngine(1)
	w := wheelOf(t, e)
	var got []Time
	record := func() { got = append(got, e.Now()) }
	future := 3*tick + 100
	e.At(future, "future", record)
	e.RunUntil(tick + 50) // parks the wheel cursor on the event's tick
	e.At(tick+50, "at-deadline", record)
	e.At(2*tick+75, "mid", record)
	e.At(future, "same-instant", record)
	if len(w.early) != 2 {
		t.Fatalf("early heap holds %d events, want the 2 scheduled below the parked tick", len(w.early))
	}
	e.Run()
	want := []Time{tick + 50, 2*tick + 75, future, future}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestWheelParkedMultiInstantTick parks a deadline inside a tick that holds
// several undrained instants, then schedules before, between and after
// them, and at their instants: every schedule joins the active tick's run
// at its (when, seq) rank, so it fires in time order and, at a shared
// instant, after the events already there.
func TestWheelParkedMultiInstantTick(t *testing.T) {
	const t0 = 37 * tick // a tick start inside level 0's span
	e := NewEngine(1)
	w := wheelOf(t, e)
	var got []string
	at := func(when Time, name string) {
		e.At(when, name, func() { got = append(got, fmt.Sprintf("%s@%d", name, e.Now()-t0)) })
	}
	at(t0+100, "a")
	at(t0+300, "b")
	at(t0+600, "c")
	at(t0+300, "b2")
	at(t0+tick+5, "next-tick")
	e.RunUntil(t0 + 200)
	if !w.active || w.base != t0>>tickShift || len(w.run)-w.head != 3 {
		t.Fatalf("cursor not parked on the tick with 3 undrained events (active %v, base %d, run %d)",
			w.active, w.base, len(w.run)-w.head)
	}
	at(t0+900, "after")
	at(t0+300, "tie-b")
	at(t0+200, "now")
	at(t0+450, "between")
	at(t0+250, "before")
	at(t0+600, "tie-c")
	at(t0+tick-1, "tick-end")
	if len(w.early) != 0 {
		t.Fatalf("%d schedules into the active tick went to the early heap", len(w.early))
	}
	e.RunUntil(Forever)
	want := "[a@100 now@200 before@250 b@300 b2@300 tie-b@300 between@450 c@600 tie-c@600 after@900 tick-end@1023 next-tick@1029]"
	if fmt.Sprint(got) != want {
		t.Fatalf("fired %v,\nwant  %s", got, want)
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
	// Five level-2 slots from base is past level 0's span (one level-1
	// slot) and level 1's (64 of them), so the event is filed in level 2.
	// Lying past the start of both its level-2 and its level-1 slot, it
	// must cascade twice to fire.
	victim := (5<<(2*wheelBits)+3*wheelSlots+1)*tick + 7
	w := wheelOf(t, e)
	h1 := e.At(victim, "victim", func() { t.Fatal("cancelled event fired") })
	if w.occ[2] == 0 {
		t.Fatal("victim not filed at level 2 (test premise broken)")
	}
	if !h1.Cancel() {
		t.Fatal("live cancel failed")
	}
	// Run past the cancelled event's time: the pop loop cascades it down,
	// reaps it, and recycles its storage into the arena free list.
	e.RunUntil(victim + victim/2)
	if got := w.placed; got != 3 {
		t.Fatalf("victim was filed %d times, want 3 (level 2, then 1, then 0)", got)
	}
	if got := len(arena.free); got != 1 {
		t.Fatalf("free list = %d after reap, want 1", got)
	}
	fired := 0
	h2 := e.At(3*victim, "reuse", func() { fired++ })
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

// TestWheelSteadyStateZeroAlloc asserts the zero-allocation property holds
// for the wheel hot path at a realistic cadence: 12 µs inter-event gaps
// walk every level-0/-1 slot and cascade continuously, and once the run
// slice and free list are warm a schedule→cascade→fire→recycle cycle must
// not allocate.
func TestWheelSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs AllocsPerRun")
	}
	e := NewEngine(1)
	n := 0
	fn := func() { n++ }
	const gap = Duration(12 * units.Microsecond)
	// Warm the run slice and the free list (level 1 wraps once per 4096
	// ticks; 10k events at ~12-tick spacing wrap it dozens of times).
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

// wheelProbe wraps the wheel and records which parts of it a fuzz input
// reaches: the levels events are filed into, the overflow and early heaps,
// and inserts into an active tick's run.
type wheelProbe struct {
	*timerWheel
	levels                  [wheelLevels]bool
	overflow, early, insert bool
}

func (p *wheelProbe) schedule(ev *event) {
	w := p.timerWheel
	p.insert = p.insert || (w.active && ev.when>>tickShift == w.base)
	w.schedule(ev)
	for lvl, occ := range w.occ {
		p.levels[lvl] = p.levels[lvl] || occ != 0
	}
	p.overflow = p.overflow || len(w.overflow) > 0
	p.early = p.early || len(w.early) > 0
}

// TestFuzzSeedsReachWheelGeometry guards the fuzz corpus's premise: the
// seed inputs for the coarse-tick geometry file events into every wheel
// level and the overflow heap, park schedules below the cursor in the early
// heap, and insert into an active tick's run.
func TestFuzzSeedsReachWheelGeometry(t *testing.T) {
	p := &wheelProbe{}
	for _, seed := range [][]byte{seedLevels, seedOverflow, seedParkedTick} {
		p.timerWheel = newTimerWheel()
		fuzzRun(t, seed, true, p)
	}
	for lvl, ok := range p.levels {
		if !ok {
			t.Errorf("no seed files an event into level %d", lvl)
		}
	}
	if !p.overflow || !p.early || !p.insert {
		t.Errorf("seeds reach overflow %v, early heap %v, active-tick insert %v; want all", p.overflow, p.early, p.insert)
	}
}
