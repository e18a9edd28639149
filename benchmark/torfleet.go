package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// tor-fleet is the control plane over the ToR cluster: sixteen VMs start
// packed on hosts 0-1 of a 4-host fleet under a hot rate skew, the spread
// policy migrates some of them (DNIS pre-copy over the fabric, with VF
// hot-removal at the source) and the healing reconciler answers seeded
// link flaps. It is the only workload through the ToR switch, migration
// and ctlplane.
//
// The faults are link flaps only. A surprise VF removal healed onto a slot
// a migration left behind loses the packets still in that slot's ring
// (the VF driver's CTRL-register reset drops them without counting them as
// reset-dropped), which the audit reports as a ring-conservation
// violation; a workload must run without failed operations.
const (
	torHosts   = 4
	torPorts   = 2
	torVFs     = 8
	torVMs     = 16
	torHot     = 4
	torHotMbps = 400
	torMbps    = 100
	// torMoves caps the policy's migrations so every one of them finishes
	// inside the horizon; an unfinished one is an audit violation.
	torMoves  = 4
	torFlapMs = 400
	torWarmMs = 300
	torRunMs  = 12000
	torStep   = 50 * units.Millisecond
)

type torFleetInput struct {
	seed uint64
	sc   *ctlplane.Scenario
}

// genTorFleet draws when, in the first half of the run, each loaded port
// flaps, and the engine seed. The amounts (VMs and hot VMs per host,
// flapped ports, flap length) are fixed, so every seed asks for about the
// same work.
func genTorFleet(seed uint64, frac float64) input {
	r := newRNG(seed, "tor-fleet")
	runMs := int(scaled(torRunMs*units.Millisecond, frac) / units.Millisecond)
	sc := &ctlplane.Scenario{
		Schema: ctlplane.SchemaVersion, Name: "tor-fleet",
		Hosts: torHosts, PortsPerHost: torPorts, VFsPerPort: torVFs, GuestMemoryMiB: 8,
		Policy: "spread", Heal: true, MoveBudget: torMoves,
		WarmupMs: int(scaled(torWarmMs*units.Millisecond, frac) / units.Millisecond), RunMs: runMs,
	}
	// Eight VMs per initial host, the first two of each hot. Which VMs run
	// hot is fixed: it moves the amount of work by several percent.
	for i := 0; i < torVMs; i++ {
		rate := torMbps
		if i%(torVMs/2) < torHot/2 {
			rate = torHotMbps
		}
		sc.VMs = append(sc.VMs, ctlplane.VMSpec{
			Name: fmt.Sprintf("vm%02d", i), Host: i * 2 / torVMs, RateMbps: rate,
		})
	}
	// One flap on each port that carries traffic at the start: the VMs'
	// ports on hosts 0 and 1 and the clients' ports on hosts 1 and 2.
	for _, hp := range [][2]int{{0, 0}, {1, 0}, {1, 1}, {2, 1}} {
		sc.Faults = append(sc.Faults, ctlplane.FaultSpec{
			AtMs: sc.WarmupMs + 1 + r.intn(runMs/2), Kind: "link-flap",
			Host: hp[0], Port: hp[1], DurationMs: max(1, int(torFlapMs*frac)),
		})
	}
	return &torFleetInput{seed: r.seed(), sc: sc}
}

func (in *torFleetInput) newSim() simulation { return &torFleetSim{in: in} }

type torFleetSim struct {
	in     *torFleetInput
	reg    *obs.Registry
	r      *ctlplane.Run
	rep    *ctlplane.Report
	stepMs []float64
	pkts   int64
}

func (s *torFleetSim) setup(c *calls) error {
	s.pkts = workload.TotalPackets()
	s.reg = obs.NewRegistry()
	sp := c.begin("ctlplane.NewRun")
	r, err := ctlplane.NewRun(s.in.sc, s.in.seed, s.reg, nil)
	c.endOp(sp, err)
	s.r = r
	return err
}

// run steps the fleet to its horizon in fixed slices of simulated time,
// the way the scenario server is driven, timing each step.
func (s *torFleetSim) run(c *calls) {
	for !s.r.Done() {
		d := min(torStep, s.r.Remaining())
		sp := c.begin("ctlplane.Run.Step")
		t := time.Now()
		s.r.Step(d)
		s.stepMs = append(s.stepMs, float64(time.Since(t))/float64(time.Millisecond))
		c.end(sp)
	}
}

// audit is Finish: it stops the flows, settles, audits the cluster, the
// migrations and the controller's books, and freezes the report.
func (s *torFleetSim) audit(c *calls) {
	sp := c.begin("ctlplane.Run.Finish")
	s.rep = s.r.Finish()
	c.endAudit(sp, s.rep.Violations)
	c.attempted += s.rep.Migrations
	for i := int64(0); i < s.rep.FailedMigrations; i++ {
		c.failures = append(c.failures, "migration failed")
	}
}

func (s *torFleetSim) engine() *sim.Engine { return s.r.Cluster().Eng }

func (s *torFleetSim) outcome() outcome {
	report, err := s.rep.Encode()
	var problems []string
	if err != nil {
		problems = append(problems, err.Error())
	}
	m := map[string]float64{
		"workload.pkts":              float64(workload.TotalPackets() - s.pkts),
		"chaos.invariant_violations": float64(len(s.rep.Violations)),
		"sim.goodput_gbps":           float64(s.rep.GoodputMbps) / 1e3,
		"cluster.fabric_drops":       float64(s.reg.SumCounters("cluster.link.", ".dropped_pkts")),
		"migration.count":            float64(s.rep.Migrations),
		"migration.retries":          float64(s.reg.Counter("cluster.migration.retries").Value()),
		"ctlplane.reconciles":        float64(s.reg.Counter("ctl.reconciles").Value()),
	}
	var beds []*core.Testbed
	for _, h := range s.r.Cluster().Hosts() {
		beds = append(beds, h.Bed)
	}
	testbedCounts(m, s.reg, beds...)
	return outcome{results: json.RawMessage(report), counts: m, stepMs: s.stepMs, problems: problems}
}
