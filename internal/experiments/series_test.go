package experiments

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestSeriesBuckets(t *testing.T) {
	s := newSeries(100 * units.Millisecond)
	s.Add(50*units.Time(units.Millisecond), 1)
	s.Add(150*units.Time(units.Millisecond), 2)
	s.Add(160*units.Time(units.Millisecond), 3)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Bucket(0) != 1 || s.Bucket(1) != 5 {
		t.Fatalf("buckets = %v, %v", s.Bucket(0), s.Bucket(1))
	}
	if s.Bucket(99) != 0 || s.Bucket(-1) != 0 {
		t.Fatal("out-of-range buckets should be 0")
	}
	if s.Width() != 100*units.Millisecond {
		t.Fatalf("width = %v", s.Width())
	}
}

func TestSeriesBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width should panic")
		}
	}()
	newSeries(0)
}

func TestSeriesTotalProperty(t *testing.T) {
	// Sum of bucket values always equals sum of added values.
	prop := func(raw []uint16) bool {
		s := newSeries(units.Millisecond)
		var want float64
		for _, r := range raw {
			t := units.Time(r) * units.Time(units.Microsecond)
			s.Add(t, float64(r%7))
			want += float64(r % 7)
		}
		var got float64
		for i := 0; i < s.Len(); i++ {
			got += s.Bucket(i)
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
