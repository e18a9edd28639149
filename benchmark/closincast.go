package main

import (
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// clos-incast is the fabric axis: a 1024-host leaf-spine Clos with 4:1
// trunks under the fig31 ring at 50% edge load, hit every 50 ms by an
// incast and once per simulated second by a trunk flap, with the fast path
// in auto mode. Congested flows demote to packets and calm ones promote
// back to the fluid model. No testbed runs here.
const (
	closLeafs        = 32
	closSpines       = 4
	closHostsPerLeaf = 32
	closOversub      = 4
	closRingVMs      = 10
	closStep         = 50 * units.Millisecond
	closHorizon      = 10 * units.Second
	closIncastBytes  = 2 * units.MiB
	// closFlapEvery is one simulated second in steps.
	closFlapEvery = int(units.Second / closStep)
)

// closFans are the incast fan-ins drawn from.
var closFans = []int{4, 8, 16}

type incast struct {
	receiver int
	senders  []int
}

// trunkFlap takes a leaf-spine trunk down at step down and up at step up.
type trunkFlap struct {
	down, up    int
	leaf, spine int
}

type closIncastInput struct {
	engSeed uint64
	steps   int
	incasts []incast // one per step
	flaps   []trunkFlap
}

// genClosIncast draws each step's incast (the order of the fan-ins, the
// receiver, distinct senders) and, for each simulated second, which trunk
// flaps, when, and for how many steps.
func genClosIncast(seed uint64, frac float64) input {
	r := newRNG(seed, "clos-incast")
	in := &closIncastInput{engSeed: r.seed(), steps: int(scaled(closHorizon, frac) / closStep)}
	in.steps = max(in.steps, 1)
	hosts := closLeafs * closHostsPerLeaf
	var fans []int
	for k := 0; k < in.steps; k++ {
		// Every run of len(closFans) steps uses each fan-in once, so the
		// total incast load is the same for every seed.
		if k%len(closFans) == 0 {
			fans = r.perm(len(closFans))
		}
		ic := incast{receiver: r.intn(hosts)}
		used := map[int]bool{ic.receiver: true}
		for fan := closFans[fans[k%len(closFans)]]; len(ic.senders) < fan; {
			if h := r.intn(hosts); !used[h] {
				used[h] = true
				ic.senders = append(ic.senders, h)
			}
		}
		in.incasts = append(in.incasts, ic)
	}
	for first := 0; first < in.steps; first += closFlapEvery {
		f := trunkFlap{down: first + r.intn(closFlapEvery), leaf: r.intn(closLeafs), spine: r.intn(closSpines)}
		f.up = f.down + 1 + r.intn(4)
		if f.up < in.steps {
			in.flaps = append(in.flaps, f)
		}
	}
	return in
}

func (in *closIncastInput) newSim() simulation { return &closIncastSim{in: in} }

type closIncastSim struct {
	in   *closIncastInput
	reg  *obs.Registry
	c    *cluster.Clos
	ring []*cluster.ClosFlow
	vs   []string
}

func (s *closIncastSim) setup(c *calls) error {
	s.reg = obs.NewRegistry()
	sp := c.begin("cluster.NewClos")
	clos, err := cluster.NewClos(cluster.ClosConfig{
		Topo: cluster.OversubscribedTopology(closLeafs, closSpines, closHostsPerLeaf, closOversub),
		Seed: s.in.engSeed, Obs: s.reg, Fastpath: cluster.FastpathAuto,
	})
	c.endOp(sp, err)
	if err != nil {
		return err
	}
	s.c = clos
	sp = c.begin("cluster.Clos.StartRing")
	s.ring = clos.StartRing(closRingVMs, model.ClusterLinkRate/2/closRingVMs)
	c.end(sp)
	return nil
}

func (s *closIncastSim) run(c *calls) {
	for k, ic := range s.in.incasts {
		for _, f := range s.in.flaps {
			if f.down == k || f.up == k {
				sp := c.begin("cluster.Clos.SetTrunk")
				s.c.SetTrunk(f.leaf, f.spine, f.up == k)
				c.end(sp)
			}
		}
		// Each incast's flows get their own VM ids, so no two flows share
		// a 5-tuple.
		vm := closRingVMs + k
		for _, h := range ic.senders {
			sp := c.begin("cluster.Clos.StartTransfer")
			s.c.StartTransfer(h, vm, ic.receiver, vm, model.ClusterLinkRate, closIncastBytes)
			c.end(sp)
		}
		sp := c.begin("cluster.Clos.Run")
		s.c.Run(closStep)
		c.end(sp)
	}
}

func (s *closIncastSim) audit(c *calls) {
	sp := c.begin("chaos.AuditClos")
	s.vs = violationStrings(chaos.AuditClos(s.c))
	c.endAudit(sp, s.vs)
}

func (s *closIncastSim) engine() *sim.Engine { return s.c.Eng }

// closResults are the canonical results: every flow's ledger, in creation
// order, as [src, dst, injected, delivered, dropped, delivered bytes, FCT ns].
type closResults struct {
	Flows      [][7]int64 `json:"flows"`
	Violations []string   `json:"violations"`
}

func (s *closIncastSim) outcome() outcome {
	res := closResults{Violations: s.vs}
	var injected, ringBytes int64
	for _, f := range s.c.Flows() {
		res.Flows = append(res.Flows, [7]int64{
			int64(f.SrcHost), int64(f.DstHost), f.Injected(), f.Delivered(), f.Dropped(),
			int64(f.DeliveredBytes()), int64(f.FCT()),
		})
		injected += f.Injected()
	}
	for _, f := range s.ring {
		if f != nil {
			ringBytes += int64(f.DeliveredBytes())
		}
	}
	fluid := s.reg.SumCounters("cluster.clos.tier.", ".fluid_bytes")
	packet := s.reg.SumCounters("cluster.clos.tier.", ".tx_bytes")
	m := map[string]float64{
		"workload.pkts":               float64(injected),
		"chaos.invariant_violations":  float64(len(s.vs)),
		"cluster.clos_drops":          float64(s.c.TierDrops()),
		"cluster.fastpath_demotions":  float64(s.c.Demotions()),
		"cluster.fastpath_promotions": float64(s.c.Promotions()),
		"cluster.fluid_byte_share":    ratio(fluid, fluid+packet),
		// The ring's goodput over the horizon.
		"sim.goodput_gbps": float64(ringBytes) * 8 / (float64(s.in.steps) * closStep.Seconds()) / 1e9,
	}
	var problems []string
	if ringBytes == 0 {
		problems = append(problems, "the ring delivered nothing")
	}
	return outcome{results: res, counts: m, problems: problems}
}
