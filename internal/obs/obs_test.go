package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/units"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	c.Inc()
	c.Add(5)
	g.Set(3.2)
	h.Observe(units.Microsecond)
	h.ObserveN(units.Microsecond, 4)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("nil instruments must be inert")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil hist quantile")
	}
	if r.SumCounters("", "") != 0 || r.FindHistogram("z") != nil {
		t.Fatal("nil registry queries")
	}
	if NewPathTrack(r, "p") != nil {
		t.Fatal("nil registry should yield nil track")
	}
	var pt *PathTrack
	pt.ObserveDoorbellToDMA(1, 1)
	pt.ObserveDMAToIntr(1, 1)
	pt.ObserveDoorbellToIntr(1, 1)
	pt.ObserveIntrToDrain(1, 1)
	var sb *SpanBuffer
	sb.Add("t", "n", 0, 1)
	if sb.Spans() != nil || sb.Total() != 0 {
		t.Fatal("nil span buffer must be inert")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r.Merge(NewRegistry())
	NewRegistry().Merge(r)
}

func TestCounterHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nic.q0.intr_fired")
	h := r.Histogram("path.q0.doorbell_to_intr")
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.ObserveN(7*units.Microsecond, 8)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocated %.0f times per op", allocs)
	}
}

func TestRegistryIdentityAndSums(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Histogram("h") != r.Histogram("h", units.Second) {
		t.Fatal("re-registering returns the existing histogram")
	}
	r.Counter("nic.q0.intr_fired").Add(3)
	r.Counter("nic.q1.intr_fired").Add(4)
	r.Counter("nic.q0.drops").Add(100)
	if got := r.SumCounters("nic.", ".intr_fired"); got != 7 {
		t.Fatalf("SumCounters = %d", got)
	}
	if got := r.SumCounters("", ""); got != 107 {
		t.Fatalf("SumCounters all = %d", got)
	}
}

func TestHistQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 90 fast (≤10µs bucket), 9 medium (≤100µs), 1 slow (overflow beyond 5ms).
	h.ObserveN(10*units.Microsecond, 90)
	h.ObserveN(100*units.Microsecond, 9)
	h.Observe(20 * units.Millisecond)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.50); q != 10*units.Microsecond {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(0.95); q != 100*units.Microsecond {
		t.Fatalf("p95 = %v", q)
	}
	if q := h.Quantile(0.999); q != 20*units.Millisecond {
		t.Fatalf("p99.9 = %v (overflow should report max)", q)
	}
	if h.Max() != 20*units.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	// Zero-latency hops (same simulated instant) land in the 0 bucket and
	// report 0, not the next bound.
	z := r.Histogram("zero")
	z.ObserveN(0, 10)
	if q := z.Quantile(0.99); q != 0 {
		t.Fatalf("all-zero p99 = %v", q)
	}
}

func TestNewHistBuckets(t *testing.T) {
	h := NewHist(10*units.Microsecond, 100*units.Microsecond, units.Millisecond)
	h.Observe(5 * units.Microsecond)
	h.Observe(50 * units.Microsecond)
	h.Observe(500 * units.Microsecond)
	h.Observe(5 * units.Millisecond) // overflow bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 5*units.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	wantMean := (5*units.Microsecond + 50*units.Microsecond + 500*units.Microsecond + 5*units.Millisecond) / 4
	if h.Mean() != wantMean {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	if q := h.Quantile(0); q != 10*units.Microsecond {
		t.Fatalf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 5*units.Millisecond {
		t.Fatalf("q1 = %v", q)
	}
	// The index-2 observation (500µs) lies in the (100µs, 1ms] bucket, so
	// the reported bound is 1ms.
	if q := h.Quantile(0.5); q != units.Millisecond {
		t.Fatalf("q0.5 = %v", q)
	}
	if q := h.Quantile(0.25); q != 100*units.Microsecond {
		t.Fatalf("q0.25 = %v", q)
	}
}

func TestNewHistEmpty(t *testing.T) {
	h := NewHist(units.Millisecond)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestNewHistBadBoundsPanics(t *testing.T) {
	for _, bad := range [][]units.Duration{
		{units.Millisecond, units.Microsecond},
		{units.Millisecond, units.Millisecond},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v should panic", bad)
				}
			}()
			NewHist(bad...)
		}()
	}
}

func TestMergeIsDeterministicInFixedOrder(t *testing.T) {
	shard := func(n int64, g float64) *Registry {
		r := NewRegistry()
		r.Counter("c").Add(n)
		r.Gauge("g").Set(g)
		r.Histogram("h").ObserveN(units.Duration(n)*units.Microsecond, n)
		return r
	}
	a, b := shard(3, 1.5), shard(5, 2.5)
	m := NewRegistry()
	m.Merge(a)
	m.Merge(b)
	m.Merge(nil)
	if m.Counter("c").Value() != 8 {
		t.Fatalf("merged counter = %d", m.Counter("c").Value())
	}
	if m.Gauge("g").Value() != 2.5 {
		t.Fatalf("merged gauge = %v (last merged shard wins)", m.Gauge("g").Value())
	}
	if m.Histogram("h").Count() != 8 {
		t.Fatalf("merged hist count = %d", m.Histogram("h").Count())
	}
	// An unset gauge must not overwrite a set one.
	c := NewRegistry()
	c.Gauge("g") // registered, never set
	m.Merge(c)
	if m.Gauge("g").Value() != 2.5 {
		t.Fatal("unset gauge overwrote merged value")
	}

	// Byte-identical JSON regardless of which goroutine produced the shards,
	// as long as merge order is fixed.
	m2 := NewRegistry()
	m2.Merge(shard(3, 1.5))
	m2.Merge(shard(5, 2.5))
	m2.Merge(c)
	var j1, j2 bytes.Buffer
	if err := m.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatal("merged JSON not byte-identical")
	}
}

func TestSpanBufferWraps(t *testing.T) {
	s := NewSpanBuffer(3)
	for i := 0; i < 5; i++ {
		s.Add("q", "hop", units.Time(i), units.Duration(i))
	}
	sp := s.Spans()
	if s.Total() != 5 || len(sp) != 3 {
		t.Fatalf("total=%d len=%d", s.Total(), len(sp))
	}
	for i, want := range []units.Time{2, 3, 4} {
		if sp[i].Start != want {
			t.Fatalf("order: %v", sp)
		}
	}
}

func TestWriteJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("vmm.exits.eoi").Add(42)
	r.Gauge("vf.eth0/vf0.itr_us").Set(500)
	r.Histogram("path.q0.doorbell_to_intr").ObserveN(50*units.Microsecond, 10)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			P95US float64 `json:"p95_us"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Counters["vmm.exits.eoi"] != 42 || doc.Gauges["vf.eth0/vf0.itr_us"] != 500 {
		t.Fatalf("bad doc: %s", buf.String())
	}
	h := doc.Histograms["path.q0.doorbell_to_intr"]
	if h.Count != 10 || h.P95US != 50 {
		t.Fatalf("bad histogram: %+v", h)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := trace.NewBuffer(16)
	tr.Emit(units.Time(5*units.Microsecond), "nic", "intr", "eth0/vf0")
	tr.Emitf(units.Time(9*units.Microsecond), "irq", "bind", "vector=%d", 34)
	spans := []Span{
		{Track: "eth0/vf0", Name: "dma_to_intr", Start: units.Time(2 * units.Microsecond), Dur: 3 * units.Microsecond},
		{Track: "eth0/vf0", Name: "intr_to_drain", Start: units.Time(5 * units.Microsecond), Dur: 0},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events(), spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  int      `json:"pid"`
			TID  int      `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var metas, instants, completes int
	var lastTS float64
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "i":
			instants++
		case "X":
			completes++
			if e.Dur == nil {
				t.Fatal("complete event missing dur")
			}
		}
		if e.Ph != "M" {
			if e.TS < lastTS {
				t.Fatal("body events not time-sorted")
			}
			lastTS = e.TS
		}
	}
	// process_name + 3 thread tracks (ev:nic, ev:irq, pkt:eth0/vf0).
	if metas != 4 || instants != 2 || completes != 2 {
		t.Fatalf("metas=%d instants=%d completes=%d\n%s", metas, instants, completes, buf.String())
	}
	if !strings.Contains(buf.String(), `"displayTimeUnit":"ms"`) {
		t.Fatal("missing displayTimeUnit")
	}

	// Deterministic output for identical input.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, tr.Events(), spans); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("trace export not deterministic")
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("peak")
	g.SetMax(3)
	if g.Value() != 3 {
		t.Fatalf("SetMax on unset gauge: got %v, want 3", g.Value())
	}
	g.SetMax(1)
	if g.Value() != 3 {
		t.Fatalf("SetMax with lower value should keep max: got %v", g.Value())
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Fatalf("SetMax with higher value: got %v, want 7", g.Value())
	}
	// Set still overwrites unconditionally; SetMax resumes from there.
	g.Set(2)
	g.SetMax(1)
	if g.Value() != 2 {
		t.Fatalf("SetMax below an explicit Set: got %v, want 2", g.Value())
	}
	// Nil safety matches the rest of the instrument surface.
	var nilG *Gauge
	nilG.SetMax(5)
}
