package sim

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/units"
)

// TestEventFillsOneCacheLine pins the event layout: every schedule touches
// one event, and on a 64-bit platform it fits one 64-byte cache line.
func TestEventFillsOneCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 64", n)
	}
}

// Test-only engine API: running to quiescence and drawing from the root
// stream, which production code never asks for.

// Run executes events until the queue is empty or the event limit is hit.
// It returns the final simulated time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RNG returns the engine's root random source.
func (e *Engine) RNG() *RNG { return e.rng }

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, "c", func() { got = append(got, 3) })
	e.At(10, "a", func() { got = append(got, 1) })
	e.At(20, "b", func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, "tie", func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken events not FIFO: %v", got)
		}
	}
}

func TestScheduleFromCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			e.After(10, "step", step)
		}
	}
	e.After(10, "step", step)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	h := e.At(10, "x", func() { fired = true })
	if !h.Pending() {
		t.Fatal("handle should be pending before run")
	}
	if !h.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if h.Cancel() {
		t.Fatal("second cancel should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if h.Pending() {
		t.Fatal("cancelled handle still pending")
	}
}

func TestCancelNilSafe(t *testing.T) {
	var h Handle
	if h.Cancel() {
		t.Fatal("zero handle cancel should be false")
	}
	if h.Pending() {
		t.Fatal("zero handle should not be pending")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.At(10, "a", func() { got = append(got, e.Now()) })
	e.At(100, "b", func() { got = append(got, e.Now()) })
	end := e.RunUntil(50)
	if end != 50 {
		t.Fatalf("RunUntil returned %v, want 50", end)
	}
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("events up to deadline: %v", got)
	}
	// The later event still fires when we continue.
	e.RunUntil(200)
	if len(got) != 2 || got[1] != 100 {
		t.Fatalf("resumed run: %v", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, "later", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(50, "past", func() {})
	})
	e.Run()
}

// TestStop: a run stops at its deadline, with the clock there and every
// later event still queued.
func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), "n", func() { count++ })
	}
	if now := e.RunUntil(3); now != 3 {
		t.Fatalf("RunUntil(3) = %v", now)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3 at the deadline", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine(1)
	e.limit = 10
	var loop func()
	loop = func() { e.After(1, "loop", loop) }
	e.After(1, "loop", loop)
	defer func() {
		if recover() == nil {
			t.Error("event limit should panic")
		}
	}()
	e.Run()
}

// TestEventLimitPanicReportsNextAndRecycles pins the satellite bug: the
// limit panic used to fire before e.now advanced and before the popped
// event was recycled, so the diagnostic named the *previous* event's time
// and a recovering test saw the popped event leaked from the pool. The
// fixed panic names the event that tripped the limit and leaves the arena
// fully consistent. Times are seconds-scale because Time renders at
// millisecond precision — ns-scale whens would all print "0.000s" and the
// message could not discriminate the fix.
func TestEventLimitPanicReportsNextAndRecycles(t *testing.T) {
	arena := NewArena()
	e := NewEngineArena(1, arena)
	e.limit = 2
	for i := 5; i <= 7; i++ {
		e.At(Time(i)*Time(units.Second), "ev", func() {})
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("event limit should panic")
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("panic value %T, want string", r)
			}
			// The third event (7s) trips the limit; the pre-fix message
			// reported the second event's time (6s).
			if !strings.Contains(msg, "7.000s") {
				t.Fatalf("panic %q does not name the limit-tripping event's time", msg)
			}
		}()
		e.Run()
	}()
	// Recover-and-audit: the popped event must be recycled, not leaked.
	if got := len(arena.free); got != 3 {
		t.Fatalf("free list holds %d events after limit panic, want 3", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after limit panic, want 0", e.Pending())
	}
	if got := arena.Corruptions(); got != 0 {
		t.Fatalf("arena corruptions = %d after limit panic, want 0", got)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	tk := NewTicker(e, 10, "tick", func(now Time) {
		times = append(times, now)
		if len(times) == 3 {
			// change period mid-flight
			// next ticks at 40, 50 becomes 30+25=55...
		}
	})
	e.RunUntil(35)
	tk.Stop()
	e.Run()
	if len(times) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", times)
	}
	for i, want := range []Time{10, 20, 30} {
		if times[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(42)
		var out []uint64
		NewTicker(e, units.Duration(7), "t", func(now Time) {
			out = append(out, e.RNG().Uint64())
		})
		e.RunUntil(100)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d", i)
		}
	}
}

// Property: for any set of (time, id) pairs, events fire sorted by time,
// with ties broken by schedule order.
func TestOrderingProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		e := NewEngine(7)
		type rec struct {
			when Time
			seq  int
		}
		var want []rec
		var got []rec
		for i, r := range raw {
			when := Time(r % 64)
			want = append(want, rec{when, i})
			i := i
			e.At(when, "p", func() { got = append(got, rec{e.Now(), i}) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].when < want[j].when })
		e.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) did not cover range: %v", seen)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}
