package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layer APIs and around the phases that contain them. It keeps them in
// memory until the run ends. A nil tracer records nothing, so an untraced
// run pays one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans still open, outermost first
}

type span struct {
	name       string
	start, end time.Duration // since t0
	parent     int           // index of the enclosing span; -1 at the top
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans to path as Chrome trace JSON. Each event
// carries its span id and its parent's, so the causal tree survives.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return f.Close()
}

// calls is the channel a simulation's phases report through: spans around
// each public call, and the tally of operations. An operation is a call
// that returns an error, an audit, or a migration; a returned error, each
// audit violation and each failed migration is a failed operation.
type calls struct {
	tr        *tracer
	attempted int
	failures  []string
}

func (c *calls) begin(name string) int { return c.tr.begin(name) }
func (c *calls) end(id int)            { c.tr.end(id) }

// endOp closes the span of a call that returns an error, and counts it.
func (c *calls) endOp(id int, err error) {
	c.tr.end(id)
	c.attempted++
	if err != nil {
		c.failures = append(c.failures, err.Error())
	}
}

// endAudit closes an audit's span. A clean audit is one successful
// operation; each violation is one failed operation.
func (c *calls) endAudit(id int, violations []string) {
	c.tr.end(id)
	c.attempted += max(1, len(violations))
	c.failures = append(c.failures, violations...)
}
