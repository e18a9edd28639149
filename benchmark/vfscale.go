package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/workload"
)

// vf-scale is the fig15/16 60-VM cell: every port's six VFs assigned to a
// guest, half HVM and half PVM, each receiving UDP at its port's fair share
// of the 10 GbE aggregate line rate under AIC coalescing. The datapath is
// all hardware emulation (pcie, iommu, nic, interrupts, vmm); dom0 idles.
const (
	vfPorts   = 10
	vfPerPort = 6
	// vfWarmup lets AIC take its first rate sample (the figures' aicWarm).
	vfWarmup = 1500 * units.Millisecond
	vfWindow = 6 * units.Second
)

type vfGuest struct {
	name     string
	typ      vmm.DomainType
	port, vf int
}

type vfScaleInput struct {
	engSeed        uint64
	guests         []vfGuest // creation order
	rate           units.BitRate
	warmup, window units.Duration
}

// genVFScale shuffles the guest creation order over the (port, VF) slots
// and the HVM/PVM split over the guests.
func genVFScale(seed uint64, frac float64) input {
	r := newRNG(seed, "vf-scale")
	in := &vfScaleInput{
		engSeed: r.seed(),
		rate:    model.LineRateUDP / vfPerPort,
		warmup:  scaled(vfWarmup, frac),
		window:  scaled(vfWindow, frac),
	}
	n := vfPorts * vfPerPort
	slots, types := r.perm(n), r.perm(n)
	for i := 0; i < n; i++ {
		typ := vmm.HVM
		if types[i] < n/2 {
			typ = vmm.PVM
		}
		in.guests = append(in.guests, vfGuest{
			name: fmt.Sprintf("guest-%02d", i+1), typ: typ,
			port: slots[i] % vfPorts, vf: slots[i] / vfPorts,
		})
	}
	return in
}

func (in *vfScaleInput) newSim() simulation { return &vfScaleSim{in: in} }

type vfScaleSim struct {
	in     *vfScaleInput
	tb     *core.Testbed
	guests []*core.Guest
	util   core.Utilization
	res    map[*core.Guest]workload.Result
	pkts   int64 // workload packets generated before setup
	vs     []string
}

func (s *vfScaleSim) setup(c *calls) error {
	s.pkts = workload.TotalPackets()
	sp := c.begin("core.NewTestbed")
	s.tb = core.NewTestbed(core.Config{
		Seed: s.in.engSeed, Ports: vfPorts, VFsPerPort: vfPerPort, Opts: vmm.AllOptimizations,
	})
	c.end(sp)
	for _, g := range s.in.guests {
		sp := c.begin("core.AddSRIOVGuest")
		guest, err := s.tb.AddSRIOVGuest(g.name, g.typ, vmm.Kernel2628, g.port, g.vf, netstack.DefaultAIC())
		c.endOp(sp, err)
		if err != nil {
			continue
		}
		sp = c.begin("core.StartUDP")
		s.tb.StartUDP(guest, s.in.rate)
		c.end(sp)
		s.guests = append(s.guests, guest)
	}
	return nil
}

func (s *vfScaleSim) run(c *calls) {
	sp := c.begin("core.Measure")
	s.util, s.res = s.tb.Measure(s.in.warmup, s.in.window)
	c.end(sp)
}

func (s *vfScaleSim) audit(c *calls) {
	sp := c.begin("core.StopAll")
	s.tb.StopAll()
	c.end(sp)
	sp = c.begin("chaos.AuditTestbed")
	s.vs = violationStrings(chaos.AuditTestbed(s.tb))
	c.endAudit(sp, s.vs)
}

func (s *vfScaleSim) engine() *sim.Engine { return s.tb.Eng }

func (s *vfScaleSim) outcome() outcome {
	res := bedResults{Util: utilOf(s.util), Violations: s.vs}
	for _, g := range s.guests {
		res.Guests = append(res.Guests, guestResultOf(g, s.res[g], s.util))
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
	// The fig15/16 band: SR-IOV holds line rate at 60 VMs.
	if g := goodput.Gbps(); g < 9.3 || g > 9.7 {
		problems = append(problems, fmt.Sprintf("aggregate goodput %.3f Gbps outside the 9.3-9.7 Gbps line-rate band", g))
	}
	return outcome{results: res, counts: m, problems: problems}
}

// bedResults are a single-testbed workload's canonical results.
type bedResults struct {
	GoodputBps int64         `json:"goodput_bps"`
	Util       utilResult    `json:"util"`
	Guests     []guestResult `json:"guests"`
	Messages   []int64       `json:"messages,omitempty"`
	Violations []string      `json:"violations"`
}

type utilResult struct {
	Total, Dom0, Xen, Guests float64
}

func utilOf(u core.Utilization) utilResult {
	return utilResult{Total: u.Total, Dom0: u.Dom0, Xen: u.Xen, Guests: u.Guests}
}

type guestResult struct {
	Name        string  `json:"name"`
	GoodputBps  int64   `json:"goodput_bps"`
	Packets     int64   `json:"packets"`
	Interrupts  int64   `json:"interrupts"`
	SockDropped int64   `json:"sock_dropped"`
	CPUPct      float64 `json:"cpu_pct"`
}

func guestResultOf(g *core.Guest, r workload.Result, u core.Utilization) guestResult {
	return guestResult{
		Name: g.Dom.Name, GoodputBps: int64(r.Goodput), Packets: r.Packets,
		Interrupts: r.Interrupts, SockDropped: r.SockDropped, CPUPct: u.PerGuest[g.Dom.Name],
	}
}
