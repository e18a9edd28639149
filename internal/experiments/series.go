package experiments

import "repro/internal/units"

// series is a goodput time series with fixed-width buckets starting at time
// zero: a value added at time t accumulates into bucket floor(t/width). The
// fault and migration timelines sample into it.
type series struct {
	width   units.Duration
	buckets []float64
}

// newSeries creates a series with the given bucket width.
func newSeries(width units.Duration) *series {
	if width <= 0 {
		panic("experiments: series bucket width must be positive")
	}
	return &series{width: width}
}

// Width reports the bucket width.
func (s *series) Width() units.Duration { return s.width }

// Add accumulates v into the bucket containing t.
func (s *series) Add(t units.Time, v float64) {
	idx := int(int64(t) / int64(s.width))
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx] += v
}

// Len reports the number of buckets.
func (s *series) Len() int { return len(s.buckets) }

// Bucket reports the accumulated value of bucket i (0 beyond the end).
func (s *series) Bucket(i int) float64 {
	if i < 0 || i >= len(s.buckets) {
		return 0
	}
	return s.buckets[i]
}
