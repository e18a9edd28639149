package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

type metric struct {
	name, unit string
	value      float64
}

// endToEnd are the metrics a user of the simulator sees: medians over the
// untraced iterations, plus the process's peak memory.
func endToEnd(u []sample, peakRSS float64) []metric {
	var setups []float64
	for _, s := range u {
		setups = append(setups, s.setups...)
	}
	return []metric{
		{"wall_s", "s", medianOf(u, func(s sample) float64 { return s.wallS })},
		{"setup_s", "s", quantile(setups, 0.5)},
		{"run_s", "s", medianOf(u, func(s sample) float64 { return s.runS })},
		{"events_per_s", "1/s", medianOf(u, func(s sample) float64 { return float64(s.runEvents) / s.runS })},
		{"allocs", "count", medianOf(u, func(s sample) float64 { return float64(s.allocs) })},
		{"alloc_mb", "MB", medianOf(u, func(s sample) float64 { return float64(s.allocBytes) / 1e6 })},
		{"peak_rss_mb", "MB", peakRSS},
	}
}

// countMetrics are the deterministic per-layer counts, read from the
// program's accessors and obs registry. A workload without the layer
// reports zero.
var countMetrics = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"workload.pkts", "count"},
	{"iommu.dma", "count"},
	{"iommu.iotlb_hits", "count"},
	{"iommu.iotlb_misses", "count"},
	{"iommu.iotlb_hit_ratio", "ratio"},
	{"iommu.ptwalk_accesses", "count"},
	{"vmm.exits", "count"},
	{"nic.intr_fired", "count"},
	{"drivers.mailbox_retries", "count"},
	{"cluster.fabric_drops", "count"},
	{"cluster.clos_drops", "count"},
	{"cluster.fastpath_demotions", "count"},
	{"cluster.fastpath_promotions", "count"},
	{"cluster.fluid_byte_share", "ratio"},
	{"migration.count", "count"},
	{"migration.retries", "count"},
	{"ctlplane.reconciles", "count"},
	{"chaos.invariant_violations", "count"},
	{"sim.goodput_gbps", "Gbps"},
	{"sim.cpu_pct", "%"},
}

// layerProfile is the CPU attribution of a traced run, per traced
// iteration.
type layerProfile struct {
	self, incl map[string]float64 // seconds per iteration
	totalS     float64            // sampled seconds per iteration
}

func newLayerProfile(stacks []stack, total float64, iterations int) *layerProfile {
	self, incl := attribute(stacks)
	n := float64(iterations)
	for k := range self {
		self[k] /= n
	}
	for k := range incl {
		incl[k] /= n
	}
	return &layerProfile{self: self, incl: incl, totalS: total / n}
}

// perLayer are the per-layer metrics: counts and host times from the
// untraced iterations, and the CPU attribution and tracing overhead from
// the traced ones.
func perLayer(res runResult, p *layerProfile) []metric {
	u := res.untraced
	var ms []metric
	for _, c := range countMetrics {
		ms = append(ms, metric{c.name, c.unit, u[0].out.counts[c.name]})
	}
	var steps []float64
	for _, s := range u {
		steps = append(steps, s.out.stepMs...)
	}
	ms = append(ms,
		metric{"ctlplane.step_p50_ms", "ms", quantile(steps, 0.50)},
		metric{"ctlplane.step_p99_ms", "ms", quantile(steps, 0.99)},
		metric{"chaos.audit_s", "s", medianOf(u, func(s sample) float64 { return s.auditS })},
		metric{"runtime.gc_cpu_s", "s", medianOf(u, func(s sample) float64 { return s.gc.cpuS })},
		metric{"runtime.gc_assist_s", "s", medianOf(u, func(s sample) float64 { return s.gc.assistS })},
		metric{"runtime.gc_cycles", "count", medianOf(u, func(s sample) float64 { return s.gc.cycles })},
	)
	for _, l := range append(append([]string(nil), layers...), gcBucket, otherBucket) {
		ms = append(ms, metric{l + ".self_s", "s", p.self[l]})
	}
	for _, l := range layers {
		ms = append(ms, metric{l + ".incl_s", "s", p.incl[l]})
	}
	untracedWall := medianOf(u, func(s sample) float64 { return s.wallS })
	tracedWall := medianOf(res.traced, func(s sample) float64 { return s.wallS })
	ms = append(ms,
		metric{"profile.total_s", "s", p.totalS},
		metric{"sim.ns_per_event", "ns", p.self["sim"] / u[0].out.counts["sim.events"] * 1e9},
		metric{"trace_overhead_pct", "%", (tracedWall - untracedWall) / untracedWall * 100},
	)
	return ms
}

func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric by name with its unit, then, as the
// last line, the JSON result object.
func printReport(out io.Writer, v verdict, ms []metric) error {
	for _, m := range ms {
		fmt.Fprintf(out, "%-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
	failed := len(v.failures)
	fmt.Fprintf(out, "%-28s %16.6g %s\n", "ops_failed_frac", float64(failed)/float64(v.attempted), "ratio")
	metrics := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		val := m.value
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0 // no measurement (the phase never ran)
		}
		metrics[m.name] = jsonMetric{val, m.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{v.correct, v.attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
