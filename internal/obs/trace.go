package obs

import (
	"fmt"

	"repro/internal/units"
)

// Event is one recorded control-plane occurrence: an assignment, a hot-plug
// signal, a fault or a recovery step.
type Event struct {
	At       units.Time
	Category string
	Name     string
	Detail   string
}

// String renders the event as one line.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("[%v] %s: %s", e.At, e.Category, e.Name)
	}
	return fmt.Sprintf("[%v] %s: %s (%s)", e.At, e.Category, e.Name, e.Detail)
}

// Span is one timed segment of a packet batch's journey, attributed to a
// display track (typically the queue name) for the trace exporter.
type Span struct {
	Track string
	Name  string
	Start units.Time
	Dur   units.Duration
}

// ring is a fixed-capacity buffer retaining the most recent entries. A
// zero-capacity ring records nothing.
type ring[T any] struct {
	buf  []T
	next int
}

func (r *ring[T]) push(v T) {
	if cap(r.buf) == 0 {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// items returns the retained entries, oldest first. Until the ring fills,
// next is the end of buf, so the first half of the copy is empty.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Trace is a run's trace sink: one ring of control-plane events and one of
// packet spans, each keeping its most recent entries. The two capacities
// are separate so a busy datapath's spans never evict the rare events.
// Tracing is opt-in; a nil *Trace discards everything and costs one branch.
type Trace struct {
	events ring[Event]
	spans  ring[Span]
	// filter, when non-nil, restricts event recording to these categories.
	filter map[string]bool
}

// NewTrace creates a trace retaining the most recent events control-plane
// events and spans packet spans. A zero capacity records none of that kind.
func NewTrace(events, spans int) *Trace {
	if events < 0 || spans < 0 {
		panic("obs: trace capacity must not be negative")
	}
	return &Trace{
		events: ring[Event]{buf: make([]Event, 0, events)},
		spans:  ring[Span]{buf: make([]Span, 0, spans)},
	}
}

// Filter restricts event recording to the given categories (all if none).
// Spans are not filtered.
func (t *Trace) Filter(categories ...string) *Trace {
	if t == nil {
		return nil
	}
	t.filter = nil
	if len(categories) > 0 {
		t.filter = make(map[string]bool, len(categories))
		for _, c := range categories {
			t.filter[c] = true
		}
	}
	return t
}

// drops reports whether an event of the category would not be recorded.
func (t *Trace) drops(category string) bool {
	return t == nil || cap(t.events.buf) == 0 || (t.filter != nil && !t.filter[category])
}

// Emitf records an event with a formatted detail string. Safe on nil. The
// filter is consulted before formatting, so a dropped Emitf never pays the
// Sprintf: a filtered-out category costs one branch.
func (t *Trace) Emitf(at units.Time, category, name, format string, args ...any) {
	if t.drops(category) {
		return
	}
	t.events.push(Event{At: at, Category: category, Name: name, Detail: fmt.Sprintf(format, args...)})
}

// AddSpan records a packet span. Safe on nil.
func (t *Trace) AddSpan(track, name string, start units.Time, dur units.Duration) {
	if t == nil {
		return
	}
	t.spans.push(Span{Track: track, Name: name, Start: start, Dur: dur})
}

// Events returns the retained events in chronological order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events.items()
}

// Spans returns the retained spans in insertion order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans.items()
}
