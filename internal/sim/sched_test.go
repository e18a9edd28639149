package sim

import (
	"container/heap"
	"testing"

	"repro/internal/units"
)

// heapSched is the original binary-heap event queue, kept as the reference
// the timer wheel is checked against (FuzzEngineSchedule) and benchmarked
// against (BenchmarkAblationScheduler).
type heapSched struct {
	h eventHeap
}

func (s *heapSched) schedule(ev *event) { heap.Push(&s.h, ev) }

func (s *heapSched) peek() *event {
	if len(s.h) == 0 {
		return nil
	}
	return s.h[0]
}

func (s *heapSched) pop() *event { return heap.Pop(&s.h).(*event) }

func (s *heapSched) forEach(fn func(*event)) {
	for _, ev := range s.h {
		fn(ev)
	}
}

// BenchmarkAblationScheduler compares the timer wheel with the reference
// heap on pure engine storms shaped like the simulator's hot path. The
// short storm runs 64 concurrent self-rescheduling timers at 1–16 µs
// cadences (inter-packet gaps, EITR timers), with the duplicate cadences
// colliding into same-instant bursts. The mixed storm adds 64 timers at
// 100 µs–1 ms periods (ITR timers, netback completions, source ticks), the
// long delays that cascade through the wheel's upper levels. ns/op is the
// per-event cost of schedule→pop→fire→recycle.
func BenchmarkAblationScheduler(b *testing.B) {
	var short, mixed []units.Duration
	for s := 0; s < 64; s++ {
		short = append(short, units.Duration(1+s%16)*units.Microsecond)
	}
	mixed = append(mixed, short...)
	for s := 0; s < 64; s++ {
		mixed = append(mixed, 100*units.Microsecond+units.Duration(s)*14379*units.Nanosecond)
	}
	for _, bc := range []struct {
		name string
		mk   func() *Engine
		gaps []units.Duration
	}{
		{"wheel", func() *Engine { return NewEngine(1) }, short},
		{"heap", func() *Engine { return newEngine(1, nil, &heapSched{}) }, short},
		{"wheel-mixed", func() *Engine { return NewEngine(1) }, mixed},
		{"heap-mixed", func() *Engine { return newEngine(1, nil, &heapSched{}) }, mixed},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := bc.mk()
			remaining := b.N
			mk := func(gap units.Duration) func() {
				var fn func()
				fn = func() {
					remaining--
					if remaining <= 0 {
						return
					}
					e.After(gap, "storm", fn)
				}
				return fn
			}
			for s, gap := range bc.gaps {
				e.At(units.Time(s), "storm", mk(gap))
			}
			b.ResetTimer()
			e.Run()
		})
	}
}
