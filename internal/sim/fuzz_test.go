package sim

import (
	"fmt"
	"testing"
)

// fireRec is one observed firing: which schedule fired, at what time, and
// as the engine's n-th executed event.
type fireRec struct {
	id   int
	when Time
}

// fuzzMaxShift is the largest δ scale the op encoding can pick: any
// nonzero δ shifted by it reaches the wheel span, 2^fuzzMaxShift ns.
const fuzzMaxShift = tickShift + wheelBits*wheelLevels

// fuzzRun decodes data as a little op language and drives one engine with
// it, checking the engine-local invariants as it goes:
//
//   - events fire in nondecreasing time, ties broken by schedule order
//   - a successfully cancelled event never fires
//   - no event fires twice
//
// Ops are two bytes each, an op byte and an argument. The op byte's low two
// bits pick the op: schedule at now+δ, schedule a chaining event whose
// callback schedules another, cancel a random outstanding handle, or run to
// now+δ. Its upper bits pick a shift that scales every δ the op uses, up to
// past the wheel span (see fuzzMaxShift), so one input can mix sub-tick
// offsets with deltas that reach every wheel level and the overflow heap.
// It returns the full trace so the caller can compare pooled vs
// pool-disabled engines for equivalence.
func fuzzRun(t *testing.T, data []byte, pooling bool, q scheduler) (trace []fireRec, cancels []bool) {
	t.Helper()
	e := newEngine(99, nil, q)
	e.pooling = pooling
	e.limit = 100000

	nextID := 0
	scheduledAt := map[int]Time{} // id -> when
	order := map[int]int{}        // id -> global schedule order
	cancelled := map[int]bool{}
	firedSet := map[int]bool{}
	var handles []Handle
	handleID := map[int]int{} // index in handles -> id

	schedule := func(when Time, fn func(id int)) int {
		id := nextID
		nextID++
		scheduledAt[id] = when
		order[id] = len(order)
		h := e.At(when, "fuzz", func() { fn(id) })
		handleID[len(handles)] = id
		handles = append(handles, h)
		return id
	}
	onFire := func(id int) {
		if cancelled[id] {
			t.Fatalf("pooling=%v: cancelled event %d fired", pooling, id)
		}
		if firedSet[id] {
			t.Fatalf("pooling=%v: event %d fired twice", pooling, id)
		}
		firedSet[id] = true
		trace = append(trace, fireRec{id: id, when: e.Now()})
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		shift := uint(op>>2) % (fuzzMaxShift + 1)
		scaled := func(mod byte) Time { return Time(arg%mod) << shift }
		switch op % 4 {
		case 0: // schedule a plain event
			schedule(e.Now()+scaled(32), onFire)
		case 1: // schedule a chaining event: its callback schedules another
			delta := scaled(8)
			schedule(e.Now()+scaled(16), func(id int) {
				onFire(id)
				schedule(e.Now()+1+delta, onFire)
			})
		case 2: // cancel a pseudo-random outstanding handle
			if len(handles) == 0 {
				continue
			}
			k := int(arg) % len(handles)
			id := handleID[k]
			ok := handles[k].Cancel()
			cancels = append(cancels, ok)
			if ok {
				if firedSet[id] {
					t.Fatalf("pooling=%v: Cancel succeeded on already-fired event %d", pooling, id)
				}
				cancelled[id] = true
				if handles[k].Pending() {
					t.Fatalf("pooling=%v: handle pending after successful cancel", pooling)
				}
			}
		case 3: // run forward
			e.RunUntil(e.Now() + scaled(64))
		}
	}
	e.Run()

	// FIFO: nondecreasing time; within a timestamp, global schedule order.
	for i := 1; i < len(trace); i++ {
		a, b := trace[i-1], trace[i]
		if b.when < a.when {
			t.Fatalf("pooling=%v: fired backwards in time: %v then %v", pooling, a, b)
		}
		if b.when == a.when && order[b.id] < order[a.id] {
			t.Fatalf("pooling=%v: same-time events fired out of schedule order: id %d (order %d) before id %d (order %d)",
				pooling, a.id, order[a.id], b.id, order[b.id])
		}
	}
	// Completeness: every never-cancelled schedule fired exactly once.
	for id, when := range scheduledAt {
		if !cancelled[id] && !firedSet[id] {
			t.Fatalf("pooling=%v: event %d (t=%v) never fired", pooling, id, when)
		}
	}
	return trace, cancels
}

// FuzzEngineSchedule fuzzes random Schedule/Cancel/Run interleavings (with
// callback-time scheduling, which is what exercises recycle-before-fn) and
// checks the ordering/cancellation/single-fire invariants on every
// scheduler×pooling combination, then requires all four runs to be
// trace-equivalent: both pooling and the choice of timer wheel vs binary
// heap must be invisible. This is the per-interleaving wheel≡heap
// differential gate.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 5, 3, 10})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 1}) // same-time pile-up
	f.Add([]byte{0, 9, 2, 0, 3, 40})      // schedule, cancel it, run
	f.Add([]byte{1, 7, 3, 20, 1, 3, 2, 1, 3, 63})
	f.Add([]byte{0, 31, 1, 15, 2, 2, 3, 5, 0, 0, 2, 0, 3, 63, 1, 1, 3, 63})
	f.Add(seedLevels)
	f.Add(seedOverflow)
	f.Add(seedParkedTick)
	f.Fuzz(func(t *testing.T, data []byte) {
		type variant struct {
			label   string
			pooling bool
			queue   func() scheduler
		}
		wheelQ := func() scheduler { return newTimerWheel() }
		heapQ := func() scheduler { return &heapSched{} }
		variants := []variant{
			{"wheel/pooled", true, wheelQ},
			{"wheel/plain", false, wheelQ},
			{"heap/pooled", true, heapQ},
			{"heap/plain", false, heapQ},
		}
		refTrace, refCancels := fuzzRun(t, data, variants[0].pooling, variants[0].queue())
		for _, v := range variants[1:] {
			trace, cancels := fuzzRun(t, data, v.pooling, v.queue())
			if fmt.Sprint(trace) != fmt.Sprint(refTrace) {
				t.Fatalf("traces diverge between %s and %s:\n%s: %v\n%s: %v",
					variants[0].label, v.label, variants[0].label, refTrace, v.label, trace)
			}
			if fmt.Sprint(cancels) != fmt.Sprint(refCancels) {
				t.Fatalf("cancel outcomes diverge between %s and %s: %v vs %v",
					variants[0].label, v.label, refCancels, cancels)
			}
		}
	})
}

// fuzzOp encodes one op of the fuzzRun language: kind is the op (0..3),
// shift the scale of its deltas.
func fuzzOp(kind, shift, arg byte) []byte { return []byte{shift<<2 | kind, arg} }

func fuzzOps(ops ...[]byte) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, op...)
	}
	return b
}

// Seed inputs for the multi-level geometry (also committed under
// testdata/fuzz/FuzzEngineSchedule):
var (
	// seedLevels files one event into every wheel level, cancels one in
	// level 2, then runs in steps that park the cursor mid-level.
	seedLevels = fuzzOps(
		fuzzOp(0, 0, 31), fuzzOp(0, tickShift, 31), fuzzOp(0, tickShift+wheelBits, 9),
		fuzzOp(1, tickShift+2*wheelBits, 15), fuzzOp(0, tickShift+3*wheelBits-1, 31),
		fuzzOp(2, 0, 3), fuzzOp(3, tickShift+wheelBits, 40), fuzzOp(0, 0, 5),
		fuzzOp(3, tickShift+2*wheelBits, 63), fuzzOp(1, tickShift, 7), fuzzOp(3, fuzzMaxShift, 1))
	// seedOverflow parks events past the wheel span beside near ones, and
	// jumps the cursor in one run to just short of them.
	seedOverflow = fuzzOps(
		fuzzOp(0, fuzzMaxShift, 31), fuzzOp(0, fuzzMaxShift, 2), fuzzOp(1, fuzzMaxShift-1, 15),
		fuzzOp(0, 3, 17), fuzzOp(3, fuzzMaxShift, 1), fuzzOp(0, tickShift, 1),
		fuzzOp(2, 0, 1), fuzzOp(3, fuzzMaxShift-1, 63))
	// seedParkedTick parks the cursor inside a tick holding several
	// instants, then schedules before, between and after them and into the
	// parked instant itself, with chains firing inside the tick.
	seedParkedTick = fuzzOps(
		fuzzOp(0, 4, 9), fuzzOp(0, 4, 21), fuzzOp(1, 4, 3), fuzzOp(3, 0, 63),
		fuzzOp(0, 0, 10), fuzzOp(0, 4, 0), fuzzOp(0, 4, 12), fuzzOp(1, 0, 31),
		fuzzOp(3, 4, 11), fuzzOp(0, 0, 0), fuzzOp(3, 4, 63))
)
