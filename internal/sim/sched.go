// The engine's event queue.
//
// The engine schedules through the small scheduler interface, backed in
// production by a hierarchical timer wheel on coarse ticks: amortized O(1)
// schedule/pop for the dominant short-horizon events — NIC inter-packet
// gaps, ITR timers, netback completions — with per-tick batching. The
// original binary heap (O(log n) push/pop) survives only as the package
// tests' reference implementation: events fire in (when, seq) order under
// either queue, and FuzzEngineSchedule gates that wheel≡heap equivalence per
// interleaving.

package sim

import (
	"container/heap"
	"math/bits"
)

// scheduler is the engine's event queue. The contract mirrors how RunUntil
// drives it: peek returns the earliest pending event in (when, seq) order
// (nil when empty) and pop removes exactly the event the immediately
// preceding peek returned — no schedule call happens between the two.
// Cancelled events stay queued and are popped (then reaped) normally, the
// same lazy-cancel protocol the heap always used.
type scheduler interface {
	schedule(ev *event)
	peek() *event
	pop() *event
	forEach(fn func(*event))
}

// Timer-wheel geometry. A tick is 2^tickShift simulated nanoseconds
// (1.024 µs). Level i has 64 slots of width 64^i ticks, so level 0 spans
// 65.5 µs, level 1 4.2 ms, level 2 268 ms and level 3 17.2 s. The µs-scale
// gaps and timers that dominate the simulator's schedules are filed straight
// into level 0 or 1 and cascade at most once; the few events past the
// four-level span (watchdogs, long migration deadlines, Run's sentinel
// horizon) wait in a small overflow heap and rejoin the wheel as the cursor
// approaches. tickShift and wheelLevels were chosen by the wheel's placement
// counter (timerWheel.placed per fired event) on the simulator's workloads.
const (
	tickShift     = 10
	wheelBits     = 6
	wheelSlots    = 1 << wheelBits
	wheelMask     = wheelSlots - 1
	wheelLevels   = 4
	wheelTopShift = wheelBits * (wheelLevels - 1)
)

// list is an intrusive FIFO of events linked through event.next, so filing
// an event is a pointer splice and a slot never allocates.
type list struct{ head, tail *event }

func (l *list) push(ev *event) {
	ev.next = nil
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

// slot is one wheel slot. aged holds the events re-filed into it by a
// cascade or from the overflow heap, fresh those filed by a schedule. Since
// base only advances, the later an event of a given tick is scheduled the
// lower the level it is first filed at, so each of that tick's aged events
// was scheduled before each of its fresh ones, and in the order cascades
// deliver them. Walking aged then fresh therefore visits every tick's
// events in seq order, and the sort on activation only has to fix the
// order of instants within the tick.
type slot struct{ aged, fresh list }

// timerWheel is a hierarchical timer wheel (calendar queue) over ticks.
// base and filled are tick numbers (a time shifted right by tickShift).
//
// Invariants the ordering proof leans on:
//
//   - base never exceeds the earliest wheel-resident event's tick, and only
//     advances. Events whose tick is below base — possible only for
//     schedules made outside callbacks after a deadline-bounded run left the
//     cursor parked on a future tick — go to the early heap instead, which
//     always drains first.
//   - an event is filed at the lowest level where it is within 64 slots of
//     base, so for i ≥ 1 it lands strictly ahead of the cursor's slot, and
//     every slot is cascaded exactly when base enters its window. Hence a
//     level-0 slot holds exactly one tick, though possibly several instants.
//   - activating a tick moves its slot into run, sorted by (when, seq); the
//     slot yields the tick's events in seq order (see slot), so a stable
//     sort by time suffices. A schedule made while the tick drains that
//     lands in the same tick is binary-inserted into the undrained run
//     after every entry with an earlier-or-equal time; it carries the
//     largest seq yet, so the run stays sorted and same-instant events stay
//     FIFO.
type timerWheel struct {
	base Time
	// filled is the base value of the last refill. When base moves into a
	// new 64-tick window — by jump, or one tick at a time past a drained
	// tick — the higher-level slots containing the new base must cascade
	// before the level-0 bitmap can be trusted; advance compares windows
	// (base>>wheelBits) against filled to notice every such crossing.
	filled Time

	levels [wheelLevels][wheelSlots]slot
	// occ[i] has bit s set iff levels[i][s] is non-empty.
	occ [wheelLevels]uint64

	// run is the active tick's events in (when, seq) order; run[head:] is
	// still to fire. active is set from activation until the next peek
	// finds the run drained — schedules into tick base made by the last
	// callback must still join it.
	run    []*event
	head   int
	active bool

	// overflow holds events beyond the wheel span, earliest first.
	overflow eventHeap
	// early holds events whose tick is below base, earliest first. It is
	// cold, and all early events precede all wheel events.
	early eventHeap

	// placed counts slot filings: one per schedule that enters the wheel,
	// plus one per cascade or overflow re-file. Divided by fired events it
	// is the re-file rate the geometry was tuned on.
	placed uint64
}

func newTimerWheel() *timerWheel { return &timerWheel{} }

func (w *timerWheel) schedule(ev *event) {
	switch t := ev.when >> tickShift; {
	case t < w.base:
		heap.Push(&w.early, ev)
	case t == w.base && w.active:
		w.insert(ev)
	default:
		w.place(ev, t, false)
	}
}

// insert adds ev to the active tick's undrained run after every entry that
// fires no later than it. ev has the largest seq yet, so that position is
// its (when, seq) rank.
func (w *timerWheel) insert(ev *event) {
	lo, hi := w.head, len(w.run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if w.run[m].when <= ev.when {
			lo = m + 1
		} else {
			hi = m
		}
	}
	w.run = append(w.run, nil)
	copy(w.run[lo+1:], w.run[lo:])
	w.run[lo] = ev
}

// place files an event of tick t ≥ base at the lowest level that can reach
// it, or into the overflow heap past the wheel span. aged marks a re-file.
func (w *timerWheel) place(ev *event, t Time, aged bool) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		shift := uint(wheelBits * lvl)
		if (t>>shift)-(w.base>>shift) < wheelSlots {
			s := uint(t>>shift) & wheelMask
			if aged {
				w.levels[lvl][s].aged.push(ev)
			} else {
				w.levels[lvl][s].fresh.push(ev)
			}
			w.occ[lvl] |= 1 << s
			w.placed++
			return
		}
	}
	heap.Push(&w.overflow, ev)
}

func (w *timerWheel) peek() *event {
	// Early events all precede base, and every wheel event is at or past
	// base, so a non-empty early heap always holds the global minimum.
	if len(w.early) > 0 {
		return w.early[0]
	}
	for {
		if w.head < len(w.run) {
			return w.run[w.head]
		}
		if w.active {
			// Run drained; no schedule into this tick can join it once the
			// engine has asked for the next event, so retire it (its
			// entries were nilled as they popped) and move past the tick.
			w.run = w.run[:0]
			w.head = 0
			w.active = false
			w.base++
		}
		if !w.advance() {
			return nil
		}
	}
}

func (w *timerWheel) pop() *event {
	if len(w.early) > 0 {
		return heap.Pop(&w.early).(*event)
	}
	ev := w.run[w.head]
	w.run[w.head] = nil
	w.head++
	return ev
}

func (w *timerWheel) forEach(fn func(*event)) {
	for lvl := range w.levels {
		for s := range w.levels[lvl] {
			for _, l := range [2]*list{&w.levels[lvl][s].aged, &w.levels[lvl][s].fresh} {
				for ev := l.head; ev != nil; ev = ev.next {
					fn(ev)
				}
			}
		}
	}
	for _, ev := range w.run[w.head:] {
		fn(ev)
	}
	for _, ev := range w.overflow {
		fn(ev)
	}
	for _, ev := range w.early {
		fn(ev)
	}
}

// advance moves base forward to the next occupied level-0 tick — cascading
// every higher-level slot whose window the cursor enters — and activates
// that tick. It reports false when the wheel and overflow are empty. Skips
// over empty regions are O(1) per level via the occupancy bitmaps, so a
// sparse schedule never walks ticks one by one.
func (w *timerWheel) advance() bool {
	for {
		// If base entered a new 64-tick window since the last refill, the
		// higher-level slots now containing base must cascade down first —
		// the level-0 bitmap for this window is incomplete until they do.
		if w.base>>wheelBits != w.filled>>wheelBits {
			w.refill()
		}
		// Next occupied level-0 slot in the remainder of the current window.
		cursor := uint(w.base) & wheelMask
		if m := w.occ[0] >> cursor; m != 0 {
			w.activate(w.base + Time(bits.TrailingZeros64(m)))
			return true
		}
		// The rest of this window is empty. Find the earliest upcoming
		// occupied region — wrapped level-0 slots belong to the next window;
		// a higher-level slot is reached at its window start (a lower bound
		// on its earliest event, which is all a jump target needs); overflow
		// events are reached at their own tick — then jump base there and
		// cascade whatever the cursor landed in.
		var next Time
		have := false
		cand := func(t Time) {
			if !have || t < next {
				next, have = t, true
			}
		}
		if m := w.occ[0] & (1<<cursor - 1); m != 0 {
			s := Time(bits.TrailingZeros64(m))
			cand((w.base &^ wheelMask) + wheelSlots + s)
		}
		for lvl := 1; lvl < wheelLevels; lvl++ {
			if w.occ[lvl] == 0 {
				continue
			}
			shift := uint(wheelBits * lvl)
			span := Time(1) << (shift + wheelBits)
			cur := uint(w.base>>shift) & wheelMask
			revStart := w.base &^ (span - 1)
			if m := w.occ[lvl] >> cur; m != 0 {
				t := revStart + (Time(cur)+Time(bits.TrailingZeros64(m)))<<shift
				if t < w.base {
					t = w.base
				}
				cand(t)
			} else {
				s := Time(bits.TrailingZeros64(w.occ[lvl]))
				cand(revStart + span + s<<shift)
			}
		}
		if len(w.overflow) > 0 {
			cand(w.overflow[0].when >> tickShift)
		}
		if !have {
			return false
		}
		w.base = next
		w.refill()
	}
}

// activate empties the level-0 slot of tick into run, sorted by (when,
// seq), and begins draining it. The slot yields the tick's events in seq
// order, so the insertion sort compares times alone: a stable sort by time
// of a seq-ordered sequence is the (when, seq) order.
func (w *timerWheel) activate(tick Time) {
	w.base = tick
	s := uint(tick) & wheelMask
	sl := &w.levels[0][s]
	w.occ[0] &^= 1 << s
	run := w.run[:0]
	for _, l := range [2]*list{&sl.aged, &sl.fresh} {
		for ev := l.head; ev != nil; ev = ev.next {
			i := len(run)
			run = append(run, ev)
			for ; i > 0 && run[i-1].when > ev.when; i-- {
				run[i] = run[i-1]
			}
			run[i] = ev
		}
	}
	*sl = slot{}
	w.run = run
	w.head = 0
	w.active = true
}

// refill runs after base jumps: overflow events now within the wheel span
// rejoin it, and the slot containing base at every level cascades down so
// the level-0 window the cursor sits in is fully populated.
func (w *timerWheel) refill() {
	w.filled = w.base
	for len(w.overflow) > 0 &&
		(w.overflow[0].when>>(tickShift+wheelTopShift))-(w.base>>wheelTopShift) < wheelSlots {
		ev := heap.Pop(&w.overflow).(*event)
		w.place(ev, ev.when>>tickShift, true)
	}
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		shift := uint(wheelBits * lvl)
		s := uint(w.base>>shift) & wheelMask
		if w.occ[lvl]&(1<<s) != 0 {
			w.cascade(lvl, s)
		}
	}
}

// cascade re-files every event of the given slot one or more levels down,
// aged ones first. Events land strictly below lvl (base is inside this
// slot's window, so a lower level can always reach them), never back into
// the same slot.
func (w *timerWheel) cascade(lvl int, s uint) {
	sl := w.levels[lvl][s]
	w.levels[lvl][s] = slot{}
	w.occ[lvl] &^= 1 << s
	for _, ev := range [2]*event{sl.aged.head, sl.fresh.head} {
		for ev != nil {
			next := ev.next
			w.place(ev, ev.when>>tickShift, true)
			ev = next
		}
	}
}
