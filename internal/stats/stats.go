// Package stats provides the measurement primitives used across the
// simulator: counters keyed by name, time series with fixed-width buckets,
// and a running mean/variance. All of them are plain accumulators; sampling
// policy belongs to the components that own them. Latency histograms live in
// package obs.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// Counters is a set of named monotonically increasing int64 counters.
// The zero value is ready to use after a call to Init, or use NewCounters.
type Counters struct {
	m map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta int64) {
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += delta
}

// Get reports the value of the named counter (0 if never touched).
func (c *Counters) Get(name string) int64 { return c.m[name] }

// Names reports all touched counter names, sorted.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	for k := range c.m {
		delete(c.m, k)
	}
}

// Snapshot returns a copy of the current values.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// String renders the counters as "name=value" pairs, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for i, n := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, c.m[n])
	}
	return b.String()
}

// Series is a time series with fixed-width buckets starting at time zero.
// Values added at time t accumulate into bucket floor(t/width).
type Series struct {
	width   units.Duration
	buckets []float64
}

// NewSeries creates a series with the given bucket width.
func NewSeries(width units.Duration) *Series {
	if width <= 0 {
		panic("stats: series bucket width must be positive")
	}
	return &Series{width: width}
}

// Width reports the bucket width.
func (s *Series) Width() units.Duration { return s.width }

// Add accumulates v into the bucket containing t.
func (s *Series) Add(t units.Time, v float64) {
	idx := int(int64(t) / int64(s.width))
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx] += v
}

// Len reports the number of buckets.
func (s *Series) Len() int { return len(s.buckets) }

// Bucket reports the accumulated value of bucket i (0 beyond the end).
func (s *Series) Bucket(i int) float64 {
	if i < 0 || i >= len(s.buckets) {
		return 0
	}
	return s.buckets[i]
}

// BucketStart reports the start time of bucket i.
func (s *Series) BucketStart(i int) units.Time {
	return units.Time(int64(i) * int64(s.width))
}

// Values returns a copy of the bucket values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.buckets))
	copy(out, s.buckets)
	return out
}

// Total reports the sum over all buckets.
func (s *Series) Total() float64 {
	var t float64
	for _, v := range s.buckets {
		t += v
	}
	return t
}

// Rate reports bucket i scaled to a per-second rate.
func (s *Series) Rate(i int) float64 {
	return s.Bucket(i) / s.width.Seconds()
}

// Welford is an online mean/variance accumulator (Welford's algorithm) for
// streams whose samples need not be retained — per-task wall times in the
// experiment runner, for example. The zero value is ready to use.
type Welford struct {
	n          int64
	mean, m2   float64
	minV, maxV float64
}

// Observe records one sample.
func (w *Welford) Observe(x float64) {
	w.n++
	if w.n == 1 {
		w.minV, w.maxV = x, x
	} else {
		if x < w.minV {
			w.minV = x
		}
		if x > w.maxV {
			w.maxV = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N reports the sample count.
func (w *Welford) N() int64 { return w.n }

// Mean reports the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var reports the population variance (0 with fewer than two samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Min reports the smallest sample (0 if empty).
func (w *Welford) Min() float64 { return w.minV }

// Max reports the largest sample (0 if empty).
func (w *Welford) Max() float64 { return w.maxV }
