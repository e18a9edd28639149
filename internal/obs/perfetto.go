package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/units"
)

// This file exports a run's Trace, its events and packet spans, in the
// Chrome trace-event JSON format, loadable by Perfetto (ui.perfetto.dev)
// and chrome://tracing. Control-plane events become instants ("i") on one
// thread-track per category; packet spans become complete events ("X") on
// one thread-track per span track (queue). Everything shares pid 1;
// timestamps are simulated microseconds.

type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func toMicros(t units.Time) float64 { return float64(int64(t)) / 1e3 }

// WriteChromeTrace renders the trace's events and spans as one Chrome
// trace-event JSON document. Thread ids are assigned from the sorted track
// names so the output is deterministic.
func WriteChromeTrace(w io.Writer, t *Trace) error {
	events, spans := t.Events(), t.Spans()
	// Track name → tid, from the sorted union of event categories and span
	// tracks. Span tracks get a "pkt:" prefix so a queue's packet lane never
	// collides with an event category of the same name.
	names := map[string]bool{}
	for _, e := range events {
		names["ev:"+e.Category] = true
	}
	for _, s := range spans {
		names["pkt:"+s.Track] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	tids := make(map[string]int, len(sorted))
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]string{"name": "sriovsim"}},
	}}
	for i, n := range sorted {
		tid := i + 1
		tids[n] = tid
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]string{"name": n},
		})
	}

	body := make([]chromeEvent, 0, len(events)+len(spans))
	for _, e := range events {
		ev := chromeEvent{
			Name: e.Name, Cat: e.Category, Ph: "i", Scope: "t",
			TS: toMicros(e.At), PID: 1, TID: tids["ev:"+e.Category],
		}
		if e.Detail != "" {
			ev.Args = map[string]string{"detail": e.Detail}
		}
		body = append(body, ev)
	}
	for _, s := range spans {
		dur := float64(s.Dur) / 1e3
		body = append(body, chromeEvent{
			Name: s.Name, Cat: "packet", Ph: "X",
			TS: toMicros(s.Start), Dur: &dur, PID: 1, TID: tids["pkt:"+s.Track],
		})
	}
	sort.SliceStable(body, func(i, j int) bool { return body[i].TS < body[j].TS })
	out.TraceEvents = append(out.TraceEvents, body...)

	data, err := json.Marshal(&out)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
