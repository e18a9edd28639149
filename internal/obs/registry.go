// Package obs is the observability layer: a metrics registry of named
// counters, gauges and fixed-bucket latency histograms cheap enough for
// per-packet use, per-hop packet-path tracking (PathTrack, SpanBuffer), and
// a Perfetto/Chrome trace-event exporter.
//
// Everything follows the trace.Buffer nil-safety contract: a nil *Registry
// hands out nil instruments, and every instrument method is a no-op (and
// allocation-free) on a nil receiver, so instrumented hot paths cost one
// branch when observability is off.
//
// Registries are single-goroutine, like the simulation engines they observe.
// A parallel runner gives every task its own registry and merges them in a
// fixed task order afterwards (Merge), which keeps merged output — including
// float gauge values — byte-identical at any parallelism.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/units"
)

// Counter is a named monotonically increasing int64.
type Counter struct{ v int64 }

// Inc adds one. Safe on nil.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n. Safe on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a named last-value float64.
type Gauge struct {
	v   float64
	set bool
}

// Set records the value. Safe on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	g.set = true
}

// SetMax raises the gauge to v if v exceeds the current value or the gauge
// was never set. Used for peak-tracking (deepest queue, widest burst) where
// only the high-water mark matters. Safe on nil.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	if !g.set || v > g.v {
		g.v = v
		g.set = true
	}
}

// Value reports the last set value (0 on nil or never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// DefaultLatencyBounds are the fixed histogram buckets for packet-path
// latencies: 0 (the structurally-instant hops of a discrete-event model),
// then roughly logarithmic from 1 µs to 5 ms — the span between a wire
// transfer time and the longest interrupt-throttle interval the paper's
// policies program.
func DefaultLatencyBounds() []units.Duration {
	return []units.Duration{
		0,
		1 * units.Microsecond, 2 * units.Microsecond, 5 * units.Microsecond,
		10 * units.Microsecond, 20 * units.Microsecond, 50 * units.Microsecond,
		100 * units.Microsecond, 200 * units.Microsecond, 500 * units.Microsecond,
		units.Millisecond, 2 * units.Millisecond, 5 * units.Millisecond,
	}
}

// Hist is a fixed-bound duration histogram with batch observation: a
// delivered batch of n packets shares one weighted observe. Registries
// merge them; NewHist makes a standalone one (a guest's ring-wait latency).
type Hist struct {
	bounds []units.Duration // upper bounds, ascending
	counts []int64          // len(bounds)+1; last is overflow
	total  int64
	sum    units.Duration
	max    units.Duration
}

// NewHist creates a histogram with the given strictly ascending upper
// bounds; a last overflow bucket catches everything above them.
func NewHist(bounds ...units.Duration) *Hist {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Hist{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one duration. Safe on nil.
func (h *Hist) Observe(d units.Duration) { h.ObserveN(d, 1) }

// ObserveN records n observations of the same duration (one delivered batch
// of n packets). Safe on nil.
func (h *Hist) ObserveN(d units.Duration, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i] += n
	h.total += n
	h.sum += d * units.Duration(n)
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of observations (0 on nil).
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Mean reports the mean observation (0 on nil or empty).
func (h *Hist) Mean() units.Duration {
	if h == nil || h.total == 0 {
		return 0
	}
	return h.sum / units.Duration(h.total)
}

// Max reports the largest observation.
func (h *Hist) Max() units.Duration {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile reports an upper bound for the q-quantile (0<=q<=1) using the
// bucket upper bounds; observations above the last bound report the max.
func (h *Hist) Quantile(q float64) units.Duration {
	if h == nil || h.total == 0 {
		return 0
	}
	target := int64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// merge folds o into h. Both must have identical bounds.
func (h *Hist) merge(o *Hist) {
	if len(h.bounds) != len(o.bounds) {
		panic("obs: merging histograms with different bounds")
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			panic("obs: merging histograms with different bounds")
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Registry is a namespace of instruments. Registering the same name twice
// returns the same instrument; counter, gauge and histogram namespaces are
// separate.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// Counter registers (or finds) a named counter. A nil registry returns a
// nil Counter, which is safe to use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or finds) a named gauge. Nil-safe like Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram registers (or finds) a named histogram. With no bounds the
// default latency buckets apply. Re-registering returns the existing
// instrument (its original bounds win). Nil-safe like Counter.
func (r *Registry) Histogram(name string, bounds ...units.Duration) *Hist {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = DefaultLatencyBounds()
		}
		h = NewHist(bounds...)
		r.hists[name] = h
	}
	return h
}

// FindHistogram reports the named histogram without registering one (nil if
// absent).
func (r *Registry) FindHistogram(name string) *Hist {
	if r == nil {
		return nil
	}
	return r.hists[name]
}

// SumCounters sums the counters whose names carry the given prefix and
// suffix (empty strings match everything).
func (r *Registry) SumCounters(prefix, suffix string) int64 {
	if r == nil {
		return 0
	}
	var t int64
	for name, c := range r.counters {
		if len(name) >= len(prefix)+len(suffix) &&
			name[:len(prefix)] == prefix && name[len(name)-len(suffix):] == suffix {
			t += c.v
		}
	}
	return t
}

// Merge folds o into r: counters and histogram buckets add, gauges take o's
// value when o ever set one. Merging nil is a no-op. Callers that need
// deterministic output must merge in a fixed order (float sums and gauge
// overwrites are order-sensitive).
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	for name, c := range o.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range o.gauges {
		if g.set {
			r.Gauge(name).Set(g.v)
		}
	}
	for name, h := range o.hists {
		mine := r.hists[name]
		if mine == nil {
			r.hists[name] = NewHist(h.bounds...)
			mine = r.hists[name]
		}
		mine.merge(h)
	}
}

// histJSON is a histogram's serialized form: summary percentiles plus the
// raw buckets. Durations are microseconds, the natural unit of this model.
type histJSON struct {
	Count  int64        `json:"count"`
	MeanUS float64      `json:"mean_us"`
	P50US  float64      `json:"p50_us"`
	P95US  float64      `json:"p95_us"`
	P99US  float64      `json:"p99_us"`
	MaxUS  float64      `json:"max_us"`
	Bucket []bucketJSON `json:"buckets"`
}

type bucketJSON struct {
	LeUS  float64 `json:"le_us"` // upper bound; -1 = overflow bucket
	Count int64   `json:"count"`
}

func micros(d units.Duration) float64 { return float64(d) / float64(units.Microsecond) }

func (h *Hist) toJSON() histJSON {
	out := histJSON{
		Count:  h.total,
		MeanUS: micros(h.Mean()),
		P50US:  micros(h.Quantile(0.50)),
		P95US:  micros(h.Quantile(0.95)),
		P99US:  micros(h.Quantile(0.99)),
		MaxUS:  micros(h.max),
	}
	for i, c := range h.counts {
		le := -1.0
		if i < len(h.bounds) {
			le = micros(h.bounds[i])
		}
		out.Bucket = append(out.Bucket, bucketJSON{LeUS: le, Count: c})
	}
	return out
}

// snapshot is the registry's serialized form. encoding/json sorts map keys,
// so the output is deterministic for deterministic contents.
type snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]histJSON `json:"histograms"`
}

// WriteJSON renders the registry as indented, deterministic JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]histJSON),
	}
	if r != nil {
		for name, c := range r.counters {
			s.Counters[name] = c.v
		}
		for name, g := range r.gauges {
			if g.set {
				s.Gauges[name] = g.v
			}
		}
		for name, h := range r.hists {
			s.Histograms[name] = h.toJSON()
		}
	}
	data, err := json.MarshalIndent(&s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
