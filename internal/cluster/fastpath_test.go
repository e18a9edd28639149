package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/units"
)

// referenceWaterFill is an independent, brute-force max-min reference: raise
// the water level by tiny exact steps until every flow is demand- or
// link-limited. It shares no code with the solver — the property test's
// point is two implementations agreeing.
func referenceWaterFill(demands []float64, paths [][]int, caps []float64) []float64 {
	n := len(demands)
	alloc := make([]float64, n)
	frozen := make([]bool, n)
	for {
		// Next event: smallest remaining demand gap or link fair-share gap.
		step := math.Inf(1)
		for i := 0; i < n; i++ {
			if !frozen[i] {
				if gap := demands[i] - alloc[i]; gap < step {
					step = gap
				}
			}
		}
		for l := range caps {
			used := 0.0
			nAct := 0
			for i := 0; i < n; i++ {
				for _, pl := range paths[i] {
					if pl == l {
						used += alloc[i]
						if !frozen[i] {
							nAct++
						}
					}
				}
			}
			if nAct > 0 {
				if gap := (caps[l] - used) / float64(nAct); gap < step {
					step = gap
				}
			}
		}
		if math.IsInf(step, 1) {
			return alloc
		}
		if step < 0 {
			step = 0
		}
		for i := 0; i < n; i++ {
			if !frozen[i] {
				alloc[i] += step
			}
		}
		// Freeze whatever became limited (with a hair of float slack).
		progress := false
		for i := 0; i < n; i++ {
			if !frozen[i] && alloc[i] >= demands[i]-1e-6 {
				alloc[i] = demands[i]
				frozen[i] = true
				progress = true
			}
		}
		for l := range caps {
			used := 0.0
			nAct := 0
			for i := 0; i < n; i++ {
				for _, pl := range paths[i] {
					if pl == l {
						used += alloc[i]
						if !frozen[i] {
							nAct++
						}
					}
				}
			}
			if nAct > 0 && used >= caps[l]-1e-6*float64(nAct) {
				for i := 0; i < n; i++ {
					if frozen[i] {
						continue
					}
					for _, pl := range paths[i] {
						if pl == l {
							frozen[i] = true
							progress = true
							break
						}
					}
				}
			}
		}
		if !progress {
			return alloc
		}
	}
}

// TestMaxMinMatchesWaterFillingReference is the satellite property test:
// randomized flow sets over small random topologies, allocator vs. the
// brute-force reference, relative tolerance 1e-9.
func TestMaxMinMatchesWaterFillingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	var mm maxMin
	for trial := 0; trial < 200; trial++ {
		nLinks := 1 + rng.Intn(6)
		caps := make([]float64, nLinks)
		for l := range caps {
			caps[l] = float64(100+rng.Intn(900)) * 1e6 // 100 Mbps – 1 Gbps
		}
		nFlows := 1 + rng.Intn(10)
		demands := make([]float64, nFlows)
		paths := make([][]int, nFlows)
		for i := range demands {
			demands[i] = float64(1+rng.Intn(1000)) * 1e6
			hops := rng.Intn(4) // 0 hops = demand-limited only
			perm := rng.Perm(nLinks)
			if hops > nLinks {
				hops = nLinks
			}
			paths[i] = perm[:hops]
		}
		got := mm.solve(demands, paths, caps)
		want := referenceWaterFill(demands, paths, caps)
		for i := range got {
			diff := math.Abs(got[i] - want[i])
			scale := math.Max(1, math.Max(math.Abs(got[i]), math.Abs(want[i])))
			if diff/scale > 1e-9 {
				t.Fatalf("trial %d flow %d: allocator %v vs reference %v (rel %.3g)\ndemands=%v\npaths=%v\ncaps=%v",
					trial, i, got[i], want[i], diff/scale, demands, paths, caps)
			}
		}
	}
}

func TestMaxMinProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	var mm maxMin
	for trial := 0; trial < 100; trial++ {
		nLinks := 1 + rng.Intn(5)
		caps := make([]float64, nLinks)
		for l := range caps {
			caps[l] = float64(50+rng.Intn(950)) * 1e6
		}
		nFlows := 1 + rng.Intn(12)
		demands := make([]float64, nFlows)
		paths := make([][]int, nFlows)
		for i := range demands {
			demands[i] = float64(1+rng.Intn(2000)) * 1e6
			perm := rng.Perm(nLinks)
			paths[i] = perm[:1+rng.Intn(nLinks)]
		}
		alloc := mm.solve(demands, paths, caps)
		// No allocation exceeds demand; no link is over capacity.
		for i, a := range alloc {
			if a < 0 || a > demands[i]+1e-6 {
				t.Fatalf("trial %d: alloc[%d]=%v outside [0, demand=%v]", trial, i, a, demands[i])
			}
		}
		for l := range caps {
			used := 0.0
			for i := range alloc {
				for _, pl := range paths[i] {
					if pl == l {
						used += alloc[i]
					}
				}
			}
			if used > caps[l]*(1+1e-9) {
				t.Fatalf("trial %d: link %d carries %v over capacity %v", trial, l, used, caps[l])
			}
		}
		// Max-min: a flow below demand must have a bottleneck — a saturated
		// path link where its share is maximal among the link's flows.
		for i, a := range alloc {
			if a >= demands[i]-1e-6 {
				continue
			}
			pinned := false
			for _, l := range paths[i] {
				used := 0.0
				maxShare := true
				for j := range alloc {
					for _, pl := range paths[j] {
						if pl == l {
							used += alloc[j]
							if alloc[j] > a*(1+1e-9)+1e-6 {
								maxShare = false
							}
							break
						}
					}
				}
				if used >= caps[l]*(1-1e-9) && maxShare {
					pinned = true
					break
				}
			}
			if !pinned {
				t.Fatalf("trial %d: flow %d at %v < demand %v has no saturated bottleneck", trial, i, a, demands[i])
			}
		}
	}
}

// TestSnapToDemandExactness pins the equivalence-critical property: an
// uncongested flow's allocation is bit-identical to its demand, so the
// fluid emission period reproduces the packet emitter's period exactly.
func TestSnapToDemandExactness(t *testing.T) {
	demands := []float64{float64(model.LineRateUDP), float64(units.Gbps) / 3, 123456789}
	paths := [][]int{{0}, {0}, {1}}
	caps := []float64{1e12, 1e12} // effectively unconstrained
	var mm maxMin
	alloc := mm.solve(demands, paths, caps)
	for i := range demands {
		if alloc[i] != demands[i] {
			t.Fatalf("flow %d: alloc %v not bit-identical to demand %v", i, alloc[i], demands[i])
		}
	}
	bytes := units.Size(4) * model.FrameSize
	for _, r := range []units.BitRate{model.LineRateUDP, units.Gbps / 3, 123456789} {
		if fluidPeriod(bytes, float64(r)) != units.TransferTime(bytes, r) {
			t.Fatalf("fluidPeriod diverges from TransferTime at rate %v", r)
		}
	}
}

func TestFastpathModeParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FastpathMode
	}{{"auto", FastpathAuto}, {"", FastpathAuto}, {"on", FastpathOn}, {"off", FastpathOff}} {
		got, err := ParseFastpathMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFastpathMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Errorf("mode %v has empty string form", got)
		}
	}
	if _, err := ParseFastpathMode("bogus"); err == nil {
		t.Error("bogus mode should not parse")
	}
}

// TestFluidAllocationSharesBottleneck checks the fluid model actually
// installs max-min shares: two forced-fluid flows squeezing through one
// trunk each get half of it, visible in goodput.
func TestFluidAllocationSharesBottleneck(t *testing.T) {
	topo := Topology{Leafs: 2, Spines: 1, HostsPerLeaf: 2}
	topo.fill()
	topo.TrunkLink.Rate = model.ClusterLinkRate / 2 // 500 Mbps trunk
	c := newTestClos(t, ClosConfig{Topo: topo, Seed: 21, Fastpath: FastpathOn})
	a := c.StartFlow(0, 0, 2, 0, model.ClusterLinkRate) // both demand 1 Gbps
	b := c.StartFlow(1, 0, 3, 0, model.ClusterLinkRate)
	c.Run(units.Second)
	c.StopAll()
	c.Drain(100 * units.Millisecond)
	for name, f := range map[string]*ClosFlow{"a": a, "b": b} {
		gbps := float64(f.DeliveredBytes().Bits()) / 1.0 / 1e9
		if gbps < 0.22 || gbps > 0.28 {
			t.Errorf("flow %s goodput %.3f Gbps, want ~0.25 (half a 500 Mbps trunk)", name, gbps)
		}
		if f.Dropped() != 0 {
			t.Errorf("fluid flow %s dropped %d packets", name, f.Dropped())
		}
	}
	if v := c.Obs.Counter("cluster.clos.fastpath.recomputes").Value(); v == 0 {
		t.Error("no recompute recorded")
	}
}

// TestClosTierRollupsCount checks a packet-level flow reaches the per-tier
// link counters, the fabric's only link instruments.
func TestClosTierRollupsCount(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestClos(t, ClosConfig{Topo: Topology{}, Seed: 1, Obs: reg, Fastpath: FastpathOff})
	c.StartFlow(0, 0, 2, 0, model.ClusterLinkRate/4)
	c.Run(50 * units.Millisecond)
	c.StopAll()
	c.Drain(100 * units.Millisecond)
	if reg.SumCounters("cluster.clos.tier.", ".tx_pkts") == 0 {
		t.Error("tier rollups missing")
	}
}

// TestSettleSplitsExactly pins what recompute's deferred settle relies on:
// for an unbounded fluid flow at a fixed allocation, settling at t1 and then
// at t2 leaves exactly the state one settle at t2 leaves.
func TestSettleSplitsExactly(t *testing.T) {
	type state struct {
		seq, resolvedSeq, parked         int64
		injected, delivered, dropped     int64
		emitted, deliveredBytes          units.Size
		nextEmit, lastArrival, lastDeliv units.Time
		fluidBytes                       [tierCount]int64
	}
	snap := func(c *Clos, f *ClosFlow) state {
		s := state{
			seq: f.seq, resolvedSeq: f.resolvedSeq, parked: int64(len(f.parked)),
			injected: f.injectedPkts, delivered: f.deliveredPkts, dropped: f.droppedPkts,
			emitted: f.emittedBytes, deliveredBytes: f.deliveredBytes,
			nextEmit: f.nextEmit, lastArrival: f.lastArrival, lastDeliv: f.lastDeliveryAt,
		}
		for i := range c.tiers {
			s.fluidBytes[i] = c.tiers[i].fluidBytes.Value()
		}
		return s
	}
	rig := func(alloc float64) (*Clos, *ClosFlow) {
		c := newTestClos(t, ClosConfig{Topo: Topology{Leafs: 2, Spines: 2, HostsPerLeaf: 2}, Seed: 5, Fastpath: FastpathOn})
		f := c.StartFlow(0, 0, 2, 0, model.ClusterLinkRate/4)
		c.Run(units.Millisecond)
		if !f.fluid {
			t.Fatal("flow is not fluid")
		}
		f.alloc = alloc
		return c, f
	}
	allocs := []float64{float64(model.ClusterLinkRate / 4), float64(model.LineRateUDP), float64(units.Gbps) / 3, 123456789, 1e3}
	splits := [][]units.Duration{
		{0},
		{1},
		{7 * units.Microsecond, 8 * units.Microsecond},
		{333 * units.Microsecond, units.Millisecond, 2*units.Millisecond + 1},
	}
	end := 5 * units.Millisecond
	for _, alloc := range allocs {
		for _, split := range splits {
			a, fa := rig(alloc)
			b, fb := rig(alloc)
			now := a.Eng.Now()
			for _, d := range split {
				a.fm.settle(fa, now.Add(d))
			}
			a.fm.settle(fa, now.Add(end))
			b.fm.settle(fb, now.Add(end))
			if got, want := snap(a, fa), snap(b, fb); got != want {
				t.Errorf("alloc %v, settles at +%v then +%v:\n split %+v\nsingle %+v", alloc, split, end, got, want)
			}
			if fb.deliveredPkts == 0 {
				t.Errorf("alloc %v: a %v settle credited nothing", alloc, end)
			}
		}
	}
}

// TestRecomputeAllocationFree checks a warmed fabric's recompute — settles,
// solve, mode checks, installs, list compaction — allocates nothing.
func TestRecomputeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c := newTestClos(t, ClosConfig{Topo: OversubscribedTopology(4, 2, 8, 4), Seed: 3, Fastpath: FastpathAuto})
	c.StartRing(4, model.ClusterLinkRate/8)
	// An incast into host 8 demotes its senders, so the packet list and
	// the finite flows are in play too.
	for s := 0; s < 6; s++ {
		c.StartTransfer(16+s, 9, 8, 9, model.ClusterLinkRate, 64*units.MiB)
	}
	c.Run(30 * units.Millisecond)
	if c.Demotions() == 0 {
		t.Fatal("the incast demoted nothing")
	}
	if n := testing.AllocsPerRun(20, c.fm.recompute); n != 0 {
		t.Fatalf("recompute allocates %v times per call", n)
	}
}

// TestFastpathOnFlapKeepsPacketListBounded flaps the only trunk under a
// forced fast path: each down demotes the cross-leaf flows, each up promotes
// them back, and the packet list must empty again every time rather than
// grow with the flaps.
func TestFastpathOnFlapKeepsPacketListBounded(t *testing.T) {
	c := newTestClos(t, ClosConfig{Topo: Topology{Leafs: 2, Spines: 1, HostsPerLeaf: 2}, Seed: 9, Fastpath: FastpathOn})
	cross := []*ClosFlow{
		c.StartFlow(0, 0, 2, 0, model.ClusterLinkRate/4),
		c.StartFlow(1, 0, 3, 0, model.ClusterLinkRate/4),
	}
	c.StartFlow(0, 1, 1, 1, model.ClusterLinkRate/4) // intra-leaf: never demotes
	c.Run(5 * units.Millisecond)
	const flaps = 40
	for i := 0; i < flaps; i++ {
		c.SetTrunk(0, 0, false)
		c.Run(2 * units.Millisecond)
		for _, f := range cross {
			if f.fluid {
				t.Fatalf("flap %d: flow %d stayed fluid over a dead trunk", i, f.ID)
			}
		}
		if n := len(c.fm.packet); n != len(cross) {
			t.Fatalf("flap %d: packet list holds %d flows, want %d", i, n, len(cross))
		}
		c.SetTrunk(0, 0, true)
		c.Run(2 * units.Millisecond)
		if n := len(c.fm.packet); n != 0 {
			t.Fatalf("flap %d: packet list holds %d flows with every path up", i, n)
		}
	}
	if got, want := c.Promotions(), int64(flaps*len(cross)); got != want {
		t.Errorf("promotions %d, want %d", got, want)
	}
}
