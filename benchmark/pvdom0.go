package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/workload"
)

// pv-dom0 is the software path: the fig17/18 50-VM cell through the
// enhanced multi-thread netback, plus five fig14-style inter-VM pairs whose
// 4000-byte messages dom0 copies guest to guest. netback, the CPU
// accounting and the allocator do the work; the IOMMU barely runs.
const (
	pvPorts   = 10
	pvGuests  = 50
	pvPairs   = 5
	pvMessage = units.Size(4000)
	pvWarmup  = 300 * units.Millisecond
	pvWindow  = 8 * units.Second
)

type pvGuest struct {
	name string
	typ  vmm.DomainType
	port int
}

type pvDom0Input struct {
	engSeed        uint64
	guests         []pvGuest
	pairs          [][2]int // (sender, receiver) guest indices
	rate           units.BitRate
	warmup, window units.Duration
}

// genPVDom0 shuffles the guests over the ports (five each) and the HVM/PVM
// split, and draws the inter-VM pairs from distinct guests.
func genPVDom0(seed uint64, frac float64) input {
	r := newRNG(seed, "pv-dom0")
	in := &pvDom0Input{
		engSeed: r.seed(),
		rate:    model.LineRateUDP / (pvGuests / pvPorts),
		warmup:  scaled(pvWarmup, frac),
		window:  scaled(pvWindow, frac),
	}
	slots, types := r.perm(pvGuests), r.perm(pvGuests)
	for i := 0; i < pvGuests; i++ {
		typ := vmm.HVM
		if types[i] < pvGuests/2 {
			typ = vmm.PVM
		}
		in.guests = append(in.guests, pvGuest{name: fmt.Sprintf("guest-%02d", i+1), typ: typ, port: slots[i] % pvPorts})
	}
	ends := r.perm(pvGuests)
	for p := 0; p < pvPairs; p++ {
		in.pairs = append(in.pairs, [2]int{ends[2*p], ends[2*p+1]})
	}
	return in
}

func (in *pvDom0Input) newSim() simulation { return &pvDom0Sim{in: in} }

type pvDom0Sim struct {
	in     *pvDom0Input
	tb     *core.Testbed
	guests []*core.Guest // nil where AddPVGuest failed
	msgs   []*workload.MessageSource
	util   core.Utilization
	res    map[*core.Guest]workload.Result
	pkts   int64
	vs     []string
}

func (s *pvDom0Sim) setup(c *calls) error {
	s.pkts = workload.TotalPackets()
	sp := c.begin("core.NewTestbed")
	s.tb = core.NewTestbed(core.Config{
		Seed: s.in.engSeed, Ports: pvPorts, Opts: vmm.AllOptimizations,
		NetbackThreads: model.NetbackThreadsEnhanced,
	})
	c.end(sp)
	for _, g := range s.in.guests {
		sp := c.begin("core.AddPVGuest")
		guest, err := s.tb.AddPVGuest(g.name, g.typ, vmm.Kernel2628, g.port)
		c.endOp(sp, err)
		s.guests = append(s.guests, guest)
		if err != nil {
			continue
		}
		sp = c.begin("core.StartUDP")
		s.tb.StartUDP(guest, s.in.rate)
		c.end(sp)
	}
	for _, p := range s.in.pairs {
		from, to := s.guests[p[0]], s.guests[p[1]]
		if from == nil || to == nil {
			continue
		}
		sp := c.begin("workload.MessageSource.Start")
		tx := guest.NewNetSender(s.tb.HV, from.Dom)
		nb := s.tb.Netback
		src := workload.NewMessageSource(s.tb.Eng, pvMessage, func(sz units.Size) units.Duration {
			from.PV.GuestTransmit(tx, to.MAC, sz, model.FrameSize)
			// fig14's backpressure: batches queued in the backend.
			return units.Duration(nb.Backlog()) * 50 * units.Microsecond
		})
		src.Start()
		c.end(sp)
		s.msgs = append(s.msgs, src)
	}
	return nil
}

func (s *pvDom0Sim) run(c *calls) {
	sp := c.begin("core.Measure")
	s.util, s.res = s.tb.Measure(s.in.warmup, s.in.window)
	c.end(sp)
}

func (s *pvDom0Sim) audit(c *calls) {
	sp := c.begin("core.StopAll")
	for _, m := range s.msgs {
		m.Stop()
	}
	s.tb.StopAll()
	c.end(sp)
	sp = c.begin("chaos.AuditTestbed")
	s.vs = violationStrings(chaos.AuditTestbed(s.tb))
	c.endAudit(sp, s.vs)
}

func (s *pvDom0Sim) engine() *sim.Engine { return s.tb.Eng }

func (s *pvDom0Sim) outcome() outcome {
	res := bedResults{Util: utilOf(s.util), Violations: s.vs}
	for _, g := range s.guests {
		if g != nil {
			res.Guests = append(res.Guests, guestResultOf(g, s.res[g], s.util))
		}
	}
	for _, m := range s.msgs {
		res.Messages = append(res.Messages, m.Messages)
	}
	goodput := core.AggregateGoodput(s.res)
	res.GoodputBps = int64(goodput)
	m := map[string]float64{
		"workload.pkts":              float64(workload.TotalPackets() - s.pkts),
		"chaos.invariant_violations": float64(len(s.vs)),
		"sim.goodput_gbps":           goodput.Gbps(),
		"sim.cpu_pct":                s.util.Total,
	}
	testbedCounts(m, s.tb.Obs, s.tb)
	var problems []string
	for _, g := range res.Guests {
		if g.Packets == 0 {
			problems = append(problems, g.Name+" received nothing")
		}
	}
	return outcome{results: res, counts: m, problems: problems}
}
