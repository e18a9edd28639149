package main

import (
	"hash/fnv"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// A workloadSpec turns a seed into one immutable input. Every random choice
// is made here, in the benchmark, so the program only ever sees generated
// configurations through its public layer APIs.
type workloadSpec struct {
	name string
	why  string
	// gen builds the input for seed; frac scales the simulated horizon
	// (1 for the benchmark, smaller for the smoke tests).
	gen func(seed uint64, frac float64) input
}

// workloads is the benchmark's workload set, in BENCHMARK.json order.
var workloads = []workloadSpec{
	{"vf-scale", "60 SR-IOV guests on one 10-port testbed: iommu, interrupts, nic, pcie and vmm carry the datapath", genVFScale},
	{"pv-dom0", "50 PV guests plus 5 inter-VM pairs through multi-thread netback: the dom0 copy path and its allocations", genPVDom0},
	{"tor-fleet", "16-VM control-plane fleet on the 4-host ToR cluster with seeded link flaps: reconcile, DNIS migration, healing", genTorFleet},
	{"clos-incast", "1024-host 4:1 Clos with a ring, seeded incasts and trunk flaps: the fluid fast path and its demotions", genClosIncast},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// input is one generated workload configuration; each iteration of a run
// builds a fresh simulation from it.
type input interface {
	newSim() simulation
}

// simulation is one instance of a workload, driven through three timed
// phases. Every call a phase makes into the program goes through c, which
// records its span and counts the calls that can fail.
type simulation interface {
	// setup builds the topology before any traffic starts. An error means
	// the instance cannot run; the phases after it are skipped.
	setup(c *calls) error
	// run drives the simulated traffic.
	run(c *calls)
	// audit stops the traffic, drains and checks the invariants.
	audit(c *calls)
	// engine is the event engine the instance runs on (valid after setup).
	engine() *sim.Engine
	// outcome reports the simulated results and counts (after audit).
	outcome() outcome
}

// outcome is what one simulation instance produced.
type outcome struct {
	// results are the canonical simulated results; they enter the digest.
	results any
	// counts are the deterministic per-layer counts, keyed by metric name.
	// All but simulatorCounts enter the digest.
	counts map[string]float64
	// stepMs are host milliseconds per control-plane step (tor-fleet only).
	stepMs []float64
	// problems are failed sanity checks on the results.
	problems []string
}

// rng is SplitMix64. It is the benchmark's only source of randomness, so
// inputs are a pure function of (seed, stream) on any Go release, and a
// change to the program's own RNG cannot change what the two sides of a
// comparison are given.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seed draws an engine seed for the program. It is never 0, which the
// program's configs read as "use the default seed".
func (r *rng) seed() uint64 { return r.next() | 1 }

// intn returns a value in [0, n). The modulo bias is below 2^-50 for the
// small n used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a random permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// scaled shrinks a simulated duration by frac, rounded down to whole
// milliseconds and never below one.
func scaled(d units.Duration, frac float64) units.Duration {
	s := units.Duration(float64(d)*frac) / units.Millisecond * units.Millisecond
	if s < units.Millisecond {
		s = units.Millisecond
	}
	return s
}

// testbedCounts adds the device-layer counts of one or more testbeds that
// report into reg.
func testbedCounts(m map[string]float64, reg *obs.Registry, beds ...*core.Testbed) {
	var dma, walks, hits, misses int64
	for _, tb := range beds {
		dma += tb.IOMMU.Counters.Get("dma")
		walks += tb.IOMMU.Counters.Get("ptwalk_accesses")
		hits += tb.IOMMU.TLB().Hits
		misses += tb.IOMMU.TLB().Misses
	}
	m["iommu.dma"] = float64(dma)
	m["iommu.ptwalk_accesses"] = float64(walks)
	m["iommu.iotlb_hits"] = float64(hits)
	m["iommu.iotlb_misses"] = float64(misses)
	m["iommu.iotlb_hit_ratio"] = ratio(hits, hits+misses)
	m["vmm.exits"] = float64(reg.SumCounters("vmm.exits.", ""))
	m["nic.intr_fired"] = float64(reg.SumCounters("nic.", ".intr_fired"))
	m["drivers.mailbox_retries"] = float64(reg.Counter("mailbox.retries").Value())
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// violationStrings renders audit findings for the results and the
// failure list.
func violationStrings(vs []chaos.Violation) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, v.String())
	}
	return out
}
