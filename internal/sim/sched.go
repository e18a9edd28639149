// The engine's event queue.
//
// The engine schedules through the small scheduler interface, backed in
// production by a hierarchical timer wheel: amortized O(1) schedule/pop for
// the dominant short-horizon events — NIC inter-packet gaps, ITR timers,
// vhost poll rounds — with same-tick batching. The original binary heap
// (O(log n) push/pop) survives only as the package tests' reference
// implementation: events fire in (when, seq) order under either queue, and
// FuzzEngineSchedule gates that wheel≡heap equivalence per interleaving.

package sim

import (
	"container/heap"
	"math/bits"
	"slices"
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

// Timer-wheel geometry. Level i has 64 slots of width 64^i ticks (ticks are
// simulated nanoseconds), so the five levels together span 64^5 ≈ 1.07 s of
// horizon — sized so the dominant short-horizon events (µs-scale inter-packet
// gaps and ITR timers) live in levels 0–2 and cascade at most a couple of
// times, while whole measurement windows still fit inside the wheel. Events
// past the span (watchdogs, migration deadlines, Run's sentinel horizon) wait
// in a small overflow heap and rejoin the wheel as the cursor approaches.
const (
	wheelBits     = 6
	wheelSlots    = 1 << wheelBits
	wheelMask     = wheelSlots - 1
	wheelLevels   = 5
	wheelTopShift = wheelBits * (wheelLevels - 1)
)

type wheelBucket []*event

// timerWheel is a hierarchical timer wheel (calendar queue).
//
// Invariants the ordering proof leans on:
//
//   - base never exceeds the earliest wheel-resident event's time, and only
//     advances (events scheduled below base — possible after a
//     deadline-bounded run left the cursor parked on a future event — go to
//     the early heap instead, which always drains first).
//   - an event is placed at the lowest level where it is within 64 slots of
//     base, so for i ≥ 1 it lands strictly ahead of the cursor's slot, and
//     every slot is cascaded exactly when base enters its window. Hence
//     level-0 buckets are same-instant: slot width is one tick and base
//     trails all pending events, so one slot holds exactly one timestamp.
//   - a level-0 bucket is sorted by seq on activation (cascaded arrivals may
//     interleave out of order with direct schedules); events appended while
//     the bucket drains carry the highest seq yet, so the tail append keeps
//     it sorted. Draining a burst of same-instant completions is therefore
//     one bucket activation plus index bumps instead of N heap pops.
type timerWheel struct {
	base Time
	// filled is the base value of the last refill. When base moves into a
	// new 64-tick window — by jump, or one tick at a time past a drained
	// bucket — the higher-level slots containing the new base must cascade
	// before the level-0 bitmap can be trusted; advance compares windows
	// (base>>wheelBits) against filled to notice every such crossing.
	filled Time

	levels [wheelLevels][wheelSlots]wheelBucket
	// occ[i] has bit s set iff levels[i][s] is non-empty.
	occ [wheelLevels]uint64

	// Active same-tick drain: cur points at the level-0 slot being drained
	// (a pointer, so same-instant schedules appended during the drain are
	// seen), curHead is the next index to pop, curWhen the bucket's instant.
	cur     *wheelBucket
	curHead int
	curWhen Time

	// overflow holds events beyond the wheel span, earliest first.
	overflow eventHeap
	// early holds events scheduled below base, earliest first. Only
	// schedules made outside callbacks after a deadline-bounded run can
	// land here (the cursor may then sit past Now, parked on the next
	// event), so it is cold; all early events precede all wheel events.
	early eventHeap
}

func newTimerWheel() *timerWheel { return &timerWheel{} }

func (w *timerWheel) schedule(ev *event) {
	if ev.when < w.base {
		heap.Push(&w.early, ev)
		return
	}
	w.place(ev)
}

// place files a wheel-resident event (when ≥ base) at the lowest level that
// can reach it, or into the overflow heap past the wheel span.
func (w *timerWheel) place(ev *event) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		shift := uint(wheelBits * lvl)
		if (ev.when>>shift)-(w.base>>shift) < wheelSlots {
			s := uint(ev.when>>shift) & wheelMask
			w.levels[lvl][s] = append(w.levels[lvl][s], ev)
			w.occ[lvl] |= 1 << s
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
		if w.cur != nil {
			if w.curHead < len(*w.cur) {
				return (*w.cur)[w.curHead]
			}
			// Bucket drained; no same-instant schedule can arrive once the
			// engine has asked for the next event, so retire the slot (its
			// entries were nilled as they popped) and move past the tick.
			*w.cur = (*w.cur)[:0]
			w.occ[0] &^= 1 << (uint(w.curWhen) & wheelMask)
			w.cur = nil
			w.curHead = 0
			w.base = w.curWhen + 1
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
	ev := (*w.cur)[w.curHead]
	(*w.cur)[w.curHead] = nil
	w.curHead++
	return ev
}

func (w *timerWheel) forEach(fn func(*event)) {
	for lvl := range w.levels {
		for s := range w.levels[lvl] {
			for _, ev := range w.levels[lvl][s] {
				if ev != nil { // drained prefix of the active bucket
					fn(ev)
				}
			}
		}
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
// that bucket. It reports false when the wheel and overflow are empty.
// Skips over empty regions are O(1) per level via the occupancy bitmaps, so
// a sparse schedule (one packet every few µs of ns-resolution time) never
// walks ticks one by one.
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
		// events are reached at their own time — then jump base there and
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
			cand(w.overflow[0].when)
		}
		if !have {
			return false
		}
		w.base = next
		w.refill()
	}
}

// activate begins the same-tick FIFO drain of the level-0 bucket at tick.
func (w *timerWheel) activate(tick Time) {
	w.base = tick
	b := &w.levels[0][uint(tick)&wheelMask]
	if len(*b) > 1 {
		// All entries share the instant; order them by schedule seq so
		// cascaded arrivals interleave with direct schedules in FIFO order.
		slices.SortFunc(*b, func(a, c *event) int {
			switch {
			case a.seq < c.seq:
				return -1
			case a.seq > c.seq:
				return 1
			}
			return 0
		})
	}
	w.cur = b
	w.curHead = 0
	w.curWhen = tick
}

// refill runs after base jumps: overflow events now within the wheel span
// rejoin it, and the slot containing base at every level cascades down so
// the level-0 window the cursor sits in is fully populated.
func (w *timerWheel) refill() {
	w.filled = w.base
	for len(w.overflow) > 0 &&
		(w.overflow[0].when>>wheelTopShift)-(w.base>>wheelTopShift) < wheelSlots {
		w.place(heap.Pop(&w.overflow).(*event))
	}
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		shift := uint(wheelBits * lvl)
		s := uint(w.base>>shift) & wheelMask
		if w.occ[lvl]&(1<<s) != 0 {
			w.cascade(lvl, int(s))
		}
	}
}

// cascade re-files every event of the given slot one or more levels down.
// Events land strictly below lvl (base is inside this slot's window, so a
// lower level can always reach them), never back into the same bucket.
func (w *timerWheel) cascade(lvl, s int) {
	b := w.levels[lvl][s]
	w.levels[lvl][s] = b[:0]
	w.occ[lvl] &^= 1 << uint(s)
	for i, ev := range b {
		b[i] = nil
		w.place(ev)
	}
}
