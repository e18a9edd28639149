// Package sim implements the deterministic discrete-event simulation engine
// that everything else in the simulator is built on.
//
// Events are callbacks scheduled at a simulated time. Events scheduled for
// the same instant fire in the order they were scheduled (FIFO), so a run
// with a given seed is exactly reproducible. Handles returned by the
// scheduling methods allow cancellation, which is how interrupt throttles,
// watchdogs, and migration phases are retracted.
package sim

import (
	"fmt"

	"repro/internal/units"
)

// Time and Duration alias the shared unit types for convenience.
type (
	Time     = units.Time
	Duration = units.Duration
)

// Handle identifies a scheduled event and allows cancelling it. It is a
// small value type: the zero Handle is valid and permanently "not pending".
//
// Events are pooled (see Arena), so the *event a Handle points at may be
// recycled and re-issued to a later, unrelated schedule. The generation
// counter makes that safe: every recycle bumps the event's gen, so a stale
// Handle's gen no longer matches and Cancel/Pending degrade to no-ops
// instead of aliasing the pool's next occupant.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel retracts the event if it has not fired yet. It reports whether the
// event was still pending. Cancelling a zero, stale (recycled), or
// already-cancelled handle is a safe no-op.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.cancelled {
		return false
	}
	h.ev.cancelled = true
	return true
}

// Pending reports whether the event is still scheduled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.cancelled
}

type event struct {
	when Time
	seq  uint64 // schedule order, breaks ties deterministically
	// next links the event into its timer-wheel slot list.
	next      *event
	fn        func()
	name      string
	cancelled bool
	index     int // heap index
	// gen is bumped every time the event is recycled into the free list.
	// Handles capture the gen at schedule time; a mismatch means the handle
	// outlived its schedule (the event fired, or was cancelled and reaped).
	gen uint64
	// pooled is true while the event sits on an Arena free list. It is the
	// double-recycle tripwire: putting an already-pooled event (or getting
	// one that thinks it is live) means two owners held the same event,
	// which is exactly the aliasing bug pooling can introduce.
	pooled bool
}

// Arena is a free list of event objects. Engines that run sequentially on
// one goroutine (the parallel runner's per-worker point loop) can share one
// Arena so later engines schedule out of the storage earlier engines warmed
// up, instead of re-paying the allocations per point.
//
// Ownership rule: only events the engine has popped from its heap are ever
// recycled, so an abandoned engine (deadline hit, testbed dropped) keeps
// exclusive references to its still-pending events and cannot corrupt an
// arena it shares with a successor. An Arena is not safe for concurrent use.
type Arena struct {
	free []*event
	// corruptions counts integrity failures the pool detected and refused:
	// an event recycled twice, or a free-list entry that was not marked
	// pooled. Zero on every healthy run; the chaos invariant checker gates
	// on it (pool-integrity invariant).
	corruptions int64
	// executed counts the events every engine drawing on this arena has
	// executed.
	executed uint64
}

// NewArena returns an empty event free list.
func NewArena() *Arena { return &Arena{} }

// Corruptions reports how many pool-integrity failures (double-recycles,
// free-list entries not marked pooled) the arena has detected.
func (a *Arena) Corruptions() int64 { return a.corruptions }

// Executed reports how many events the engines drawing on this arena have
// executed.
func (a *Arena) Executed() uint64 { return a.executed }

// get pops a recycled event, or allocates when the free list is dry.
func (a *Arena) get() *event {
	if n := len(a.free); n > 0 {
		ev := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		if !ev.pooled {
			// A free-list occupant that does not believe it is pooled has a
			// second owner somewhere. Count it; handing it out anyway is no
			// worse than the aliasing that already happened.
			a.corruptions++
		}
		ev.pooled = false
		return ev
	}
	return &event{}
}

// put recycles an event. The caller must have bumped gen already. A
// double-put (the event is already on the free list) is detected, counted,
// and refused — the event is not appended twice, so a detected corruption
// does not also corrupt future schedules.
func (a *Arena) put(ev *event) {
	if ev.pooled {
		a.corruptions++
		return
	}
	ev.pooled = true
	a.free = append(a.free, ev)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	// Clear the vacated tail slot. With pooling this matters beyond GC
	// hygiene: the popped event is about to be recycled into the Arena, and
	// a dangling heap-slice reference to it would otherwise be the one path
	// by which a stale entry could resurface in a resumed run.
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is the simulation event loop. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// sched is the event queue: the timer wheel (package tests substitute
	// the reference binary heap).
	sched   scheduler
	seed    uint64
	rng     *RNG
	streams map[string]*RNG
	// processed counts events executed, for diagnostics and runaway guards.
	processed uint64
	// limit bounds the number of executed events, a guard tests set
	// against runaway schedules; 0 means unlimited.
	limit uint64
	// arena recycles event objects; pooling gates whether recycled events
	// are actually reused. It is always true outside package tests, which
	// clear it to compare against the pre-pool allocate-per-schedule
	// behavior.
	arena   *Arena
	pooling bool
}

// NewEngine returns an engine at time zero with a deterministic RNG seeded
// by seed and a private event arena.
func NewEngine(seed uint64) *Engine {
	return NewEngineArena(seed, nil)
}

// NewEngineArena is NewEngine with a caller-supplied event arena, so
// sequentially-run engines (one experiment point after another on a runner
// worker) reuse each other's event storage. A nil arena gets a private one.
func NewEngineArena(seed uint64, arena *Arena) *Engine {
	return newEngine(seed, arena, newTimerWheel())
}

// newEngine builds an engine on the given event queue. Everything outside
// package tests gets the timer wheel through NewEngineArena.
func newEngine(seed uint64, arena *Arena, s scheduler) *Engine {
	if arena == nil {
		arena = NewArena()
	}
	return &Engine{seed: seed, rng: NewRNG(seed), arena: arena, pooling: true, sched: s}
}

// Arena exposes the engine's event pool, so integrity checkers can read
// its corruption counter at quiesce.
func (e *Engine) Arena() *Arena { return e.arena }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Stream returns the engine's named random sub-stream, creating it on first
// use. The stream's sequence depends only on the engine seed and the name:
// not on when it is claimed, how many other streams exist, or what has been
// drawn from any of them. Repeated calls with one name return the same
// (stateful) generator.
func (e *Engine) Stream(name string) *RNG {
	if e.streams == nil {
		e.streams = make(map[string]*RNG)
	}
	r, ok := e.streams[name]
	if !ok {
		r = e.rng.Stream(name)
		e.streams[name] = r
	}
	return r
}

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn at absolute time t. Scheduling in the past (before Now)
// panics: it is always a modeling bug.
//
// The hot path is allocation-free: the event comes from the arena's free
// list and the Handle is returned by value. Callers that care about the
// zero-alloc property must pass a precomputed name (no fmt/concat at the
// call site) and a long-lived fn (no per-call closure).
func (e *Engine) At(t Time, name string, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v, before now %v", name, t, e.now))
	}
	e.seq++
	ev := e.arena.get()
	ev.when = t
	ev.seq = e.seq
	ev.name = name
	ev.fn = fn
	ev.cancelled = false
	e.sched.schedule(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn d after the current time. Negative d is clamped to 0.
func (e *Engine) After(d Duration, name string, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), name, fn)
}

// recycle returns a popped event to the arena. Bumping gen first is what
// invalidates every outstanding Handle to this schedule; it happens even
// with pooling off so handle semantics do not depend on the pooling mode.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.name = ""
	if e.pooling {
		e.arena.put(ev)
	}
}

// Forever is the deadline that runs the engine until its queue drains:
// RunUntil(Forever) leaves the clock at the last event it executed.
const Forever = Time(1<<62 - 1)

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if it is later than the last event) and returns it.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		next := e.sched.peek()
		if next == nil || next.when > deadline {
			break
		}
		e.sched.pop()
		if next.cancelled {
			e.recycle(next)
			continue
		}
		if e.limit > 0 && e.processed >= e.limit {
			// Recycle before panicking so a recovering test still sees a
			// consistent pool (the popped event must not leak, and its
			// handles must go stale), and report the offending event's own
			// time — e.now still holds the previous event's.
			when, name := next.when, next.name
			e.recycle(next)
			panic(fmt.Sprintf("sim: event limit %d exceeded at %v (event %q)", e.limit, when, name))
		}
		e.now = next.when
		e.processed++
		e.arena.executed++
		// Recycle before calling fn: a self-rescheduling callback (tickers,
		// interrupt throttles) then reuses its own event, keeping the free
		// list at steady state. fn is saved to a local first because recycle
		// clears it; gen has already advanced, so the callback cannot cancel
		// or observe its own (now historical) schedule.
		fn := next.fn
		e.recycle(next)
		fn()
	}
	if e.now < deadline && deadline < Forever {
		e.now = deadline
	}
	return e.now
}

// Pending reports the number of scheduled (non-cancelled) events.
func (e *Engine) Pending() int {
	n := 0
	e.sched.forEach(func(ev *event) {
		if !ev.cancelled {
			n++
		}
	})
	return n
}

// Ticker fires fn at a fixed period until cancelled. It reschedules itself
// after each firing.
type Ticker struct {
	eng    *Engine
	period Duration
	name   string
	fn     func(Time)
	tick   func() // created once; re-arming must not allocate a closure
	handle Handle
	done   bool
}

// NewTicker creates and starts a ticker whose first firing is one period
// from now. Period must be positive.
func NewTicker(eng *Engine, period Duration, name string, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: eng, period: period, name: name, fn: fn}
	t.tick = func() {
		if t.done {
			return
		}
		t.fn(t.eng.Now())
		if !t.done {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.handle = t.eng.After(t.period, t.name, t.tick)
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.done = true
	t.handle.Cancel()
}
