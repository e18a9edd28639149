// Package experiments reproduces every figure of the paper's evaluation
// (§5–§6). Each experiment builds fresh testbeds, drives the workloads the
// paper used, and returns a report.Figure holding the measured series, the
// paper's reference values, and the qualitative shape checks ("who wins, by
// roughly what factor, where crossovers fall") that the integration tests
// and benchmarks assert.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Point is one independently runnable unit of an experiment — a single
// series point such as one VM count, one coalescing policy, one fault case
// or one migration timeline. A point builds its own testbeds (so its own
// engines) and shares no mutable state with other points; the runner may
// execute points of one experiment on different goroutines in any order.
// Every point simulates on what the runner hands it: seed is the stable
// per-point seed (PointSeed) for every engine the point creates; reg is the
// point's private metrics registry, which every testbed the point builds
// measures into and which the runner merges in point order afterwards, so
// points never share instruments; arena is the worker's event free list,
// which consecutive points reuse instead of re-paying the allocations. The
// arena never affects results, only allocation counts; nil is valid and
// gives each engine a private arena.
//
// Key, when set, names a measurement that several experiments share (one
// cell of a scalability sweep that two figures plot). Points with equal
// keys must compute equal results whatever seed, registry and arena they
// are given, so the runner executes the first of them once, hands its
// result to the rest and merges its registry once.
type Point struct {
	Label string
	Key   string
	Run   func(seed uint64, reg *obs.Registry, arena *sim.Arena) any
}

// Spec describes one reproducible experiment: independent Points, and Build
// assembling the figure from their results. The runner (internal/runner) is
// the only way to execute one, at any parallelism, so every figure comes
// from the same points whatever the worker count.
type Spec struct {
	ID    string
	Title string

	Points []Point
	// Build assembles the figure from the point results, in Points order.
	Build func(results []any) *report.Figure

	// Observe, when set, re-runs a representative workload with the given
	// trace installed — the backing for `sriovsim -trace-out`. It is
	// observational only: the metrics it produces are discarded, never
	// merged into suite output.
	Observe func(tr *obs.Trace)
}

// PointSeed derives the stable engine seed for one point of an experiment.
// It depends only on the experiment id and point label, never on worker
// assignment or execution order, so results are bit-identical at any
// parallelism.
func PointSeed(id, label string) uint64 { return sim.StableSeed(id, label) }

// registry holds all experiments keyed by id.
var registry = map[string]Spec{}

// registerPoints registers an experiment.
func registerPoints(id, title string, points []Point, build func([]any) *report.Figure) {
	registry[id] = Spec{ID: id, Title: title, Points: points, Build: build}
}

// setObserve attaches an Observe hook to an already-registered experiment.
func setObserve(id string, fn func(tr *obs.Trace)) {
	s, ok := registry[id]
	if !ok {
		panic("experiments: setObserve on unknown id " + id)
	}
	s.Observe = fn
	registry[id] = s
}

// ByID looks an experiment up by id ("fig06", "faults", ...). An unknown
// id is an error that names every valid one.
func ByID(id string) (Spec, error) {
	s, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
		return Spec{}, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(ids, ", "))
	}
	return s, nil
}

// All returns the experiments sorted by id.
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Common measurement windows. Shapes stabilize well within a second of
// simulated time; warmup lets mailboxes settle and adaptive policies sample.
const (
	warmup  = 300 * units.Millisecond
	window  = units.Second
	aicWarm = 1500 * units.Millisecond // adaptive policies need ≥1 pps sample
)

// bedResult is one UDP_STREAM testbed's measurement window.
type bedResult struct {
	util    core.Utilization
	goodput units.BitRate
	bed     *core.Testbed
}

// bedMeasure is a bedResult reduced to the numbers a figure plots: the
// utilization split and the aggregate goodput.
type bedMeasure struct {
	total, dom0, xen, guests float64
	tput                     float64 // Gbps
}

func (r bedResult) measure() bedMeasure {
	return bedMeasure{total: r.util.Total, dom0: r.util.Dom0, xen: r.util.Xen,
		guests: r.util.Guests, tput: r.goodput.Gbps()}
}

// runSRIOV builds n SR-IOV guests spread over the testbed's ports, offers
// perVMRate of UDP to each, and measures.
func runSRIOV(cfg core.Config, n int, typ vmm.DomainType, k vmm.KernelConfig, policy func() netstack.ITRPolicy, perVMRate units.BitRate, warm units.Duration) bedResult {
	tb := core.NewTestbed(cfg)
	ports := len(tb.Ports)
	for i := 0; i < n; i++ {
		port := i % ports
		vf := i / ports
		var pol netstack.ITRPolicy
		if policy != nil {
			pol = policy()
		}
		g, err := tb.AddSRIOVGuest(fmt.Sprintf("guest-%d", i+1), typ, k, port, vf, pol)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		tb.StartUDP(g, perVMRate)
	}
	u, res := tb.Measure(warm, window)
	tb.StopAll()
	chaos.Record(tb.Obs, chaos.AuditTestbed(tb))
	return bedResult{util: u, goodput: core.AggregateGoodput(res), bed: tb}
}

// runPV is runSRIOV's counterpart through the PV split driver.
func runPV(cfg core.Config, n int, typ vmm.DomainType, k vmm.KernelConfig, perVMRate units.BitRate) bedResult {
	tb := core.NewTestbed(cfg)
	ports := len(tb.Ports)
	for i := 0; i < n; i++ {
		g, err := tb.AddPVGuest(fmt.Sprintf("guest-%d", i+1), typ, k, i%ports)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		tb.StartUDP(g, perVMRate)
	}
	u, res := tb.Measure(warmup, window)
	tb.StopAll()
	chaos.Record(tb.Obs, chaos.AuditTestbed(tb))
	return bedResult{util: u, goodput: core.AggregateGoodput(res), bed: tb}
}

// perPortRate splits the aggregate line rate across the guests sharing each
// port.
func perPortRate(nGuests, nPorts int) units.BitRate {
	perPort := (nGuests + nPorts - 1) / nPorts
	return units.BitRate(float64(model.LineRateUDP) / float64(perPort))
}

// dynamicPolicy returns the era driver's dynamic moderation.
func dynamicPolicy() netstack.ITRPolicy { return netstack.DynamicITR{} }

// aicPolicy returns the paper's adaptive coalescing.
func aicPolicy() netstack.ITRPolicy { return netstack.DefaultAIC() }
