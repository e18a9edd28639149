package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// This file adds the chaos figures: Fig. 24 measures recovery latency per
// fault kind under spaced, fully-recovering episodes (the recovery-SLO
// counterpart of the faults figure's single-shot runs), and Fig. 25 sweeps
// a randomized fault storm's arrival rate across the fig22 cluster
// topology, reporting how goodput and availability degrade. Both run the
// system-wide invariant audit and fail their figure if anything leaks.

func init() {
	registerPoints("fig24", "Recovery latency by fault kind: MTTR quantiles and availability",
		recoveryPoints(), buildRecovery)
	registerPoints("fig25", "Goodput and availability vs fault arrival rate on the cluster",
		stormPoints(), buildStorm)
}

const (
	fig24Episodes = 4
	fig24Spacing  = 2500 * units.Millisecond
	fig24Horizon  = 12 * units.Second

	fig25Hosts = 2
	fig25VMs   = 2
	stormStart = 500 * units.Millisecond
	stormEnd   = 6 * units.Second
	stormTail  = 1500 * units.Millisecond // recovery room after the last injection
)

var stormRates = []float64{0, 0.5, 2, 8} // faults per second per host

// recoveryCell is one fault kind's measured recovery service level.
type recoveryCell struct {
	kind          string
	p50, p95, p99 units.Duration
	rep           chaos.Report
	violations    int64
}

func recoveryPoints() []Point {
	cases := []struct {
		name string
		kind fault.Kind
	}{
		{"link-flap", fault.LinkFlap},
		{"mbox-drop", fault.MailboxDrop},
		{"queue-stall", fault.QueueStall},
		{"device-reset", fault.DeviceReset},
		{"vf-remove", fault.SurpriseRemoveVF},
	}
	var pts []Point
	for _, c := range cases {
		c := c
		pts = append(pts, Point{
			Label: c.name,
			Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
				return runRecovery(seed, reg, arena, c.name, c.kind)
			},
		})
	}
	return pts
}

// runRecovery drives fig24Episodes spaced injections of one kind against a
// bonded guest (VF on port 0, PV standby on port 1, miimon monitoring) at
// line rate, with every episode fully recovering before the next, and
// reads the MTTR histogram the SLO tracker fills.
func runRecovery(seed uint64, reg *obs.Registry, arena *sim.Arena, name string, kind fault.Kind) recoveryCell {
	tb := core.NewTestbed(core.Config{
		Seed: seed, Ports: 2, Opts: vmm.AllOptimizations, NetbackThreads: 2,
		Obs: reg, Arena: arena,
	})
	g, err := tb.AddBondedGuestOn("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, 1, netstack.DefaultAIC())
	if err != nil {
		panic(err)
	}
	g.Bond.StartMonitor()
	tb.StartUDP(g, model.LineRateUDP)

	inj := fault.NewInjector(tb.Eng, nil)
	inj.Watch(tb.Ports[0], tb.PFs[0])
	inj.Watch(tb.Ports[1], tb.PFs[1])
	plan := chaos.Spaced(tb.Eng, chaos.Config{
		Name:  "fig24:" + name,
		Start: units.Time(units.Second),
	}, kind, fig24Episodes, fig24Spacing)
	if err := chaos.Arm(inj, plan); err != nil {
		panic(err)
	}
	// Mailbox faults only bite when there is mailbox traffic: issue a VLAN
	// join just inside each drop window so the request rides the retry path.
	if kind == fault.MailboxDrop {
		for i, s := range plan {
			vlan := uint16(100 + i)
			tb.Eng.At(s.At.Add(100*units.Microsecond), "fig24:vlan-join", func() {
				if err := g.VF.JoinVLAN(vlan); err != nil {
					panic(err)
				}
			})
		}
	}

	nominal := model.PacketsPerSecond(model.LineRateUDP, model.FrameSize)
	slo := chaos.NewSLO(tb.Eng, reg, nominal, func() int64 { return g.Recv.Stats.AppPackets })
	slo.Attach(inj)

	tb.Eng.RunUntil(units.Time(fig24Horizon))
	rep := slo.Finish()
	tb.StopAll()
	chaos.Record(reg, chaos.AuditTestbed(tb))

	cell := recoveryCell{kind: name, rep: rep,
		violations: reg.Counter("chaos.invariant_violations").Value()}
	if h := slo.MTTR(kind); h != nil {
		cell.p50, cell.p95, cell.p99 = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	}
	return cell
}

func buildRecovery(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig24",
		Title: "Recovery latency by fault kind: MTTR quantiles and availability",
		Description: "A bonded guest (VF on port 0, PV standby on port 1, miimon 100 ms) " +
			"receives line-rate UDP while spaced fault episodes of one kind land on the VF " +
			"path; an SLO probe marks 10 ms buckets healthy or not. MTTR is injection → " +
			"first healthy bucket; the system-wide invariant audit runs after every cell.",
		PaperRef: []string{
			"planned DNIS switch outage is 0.6 s (§6.7); unplanned recovery stays in that order",
			"PF→VF mailbox carries reset/link events (§4.2); control-plane faults leave the datapath alone",
		},
	}
	p50 := f.AddSeries("mttr_p50", "ms")
	p95 := f.AddSeries("mttr_p95", "ms")
	p99 := f.AddSeries("mttr_p99", "ms")
	avail := f.AddSeries("availability", "")
	for _, r := range results {
		c := r.(recoveryCell)
		p50.Add(c.kind, c.p50.Seconds()*1e3)
		p95.Add(c.kind, c.p95.Seconds()*1e3)
		p99.Add(c.kind, c.p99.Seconds()*1e3)
		avail.Add(c.kind, c.rep.Availability)

		f.CheckTrue(c.kind+": every episode recovered",
			c.rep.Recoveries == fig24Episodes && c.rep.Unrecovered == 0,
			fmt.Sprintf("recoveries=%d unrecovered=%d", c.rep.Recoveries, c.rep.Unrecovered))
		f.CheckTrue(c.kind+": zero invariant violations", c.violations == 0,
			fmt.Sprintf("violations=%d", c.violations))
		f.CheckTrue(c.kind+": p99 recovery under 2.5 s", c.p99 < 2500*units.Millisecond,
			fmt.Sprintf("p99=%v", c.p99))
		f.CheckTrue(c.kind+": quantiles ordered", c.p50 <= c.p95 && c.p95 <= c.p99,
			fmt.Sprintf("p50=%v p95=%v p99=%v", c.p50, c.p95, c.p99))
	}
	return f
}

// stormCell is one storm-rate sweep point on the cluster.
type stormCell struct {
	rate         float64
	goodputFrac  float64 // aggregate goodput / (hosts × line rate)
	availability float64
	planned      int
	rep          chaos.Report
	violations   int64
}

func stormPoints() []Point {
	var pts []Point
	for _, rate := range stormRates {
		rate := rate
		pts = append(pts, Point{
			Label: fmt.Sprintf("rate=%g", rate),
			Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
				return runStorm(seed, reg, arena, rate)
			},
		})
	}
	return pts
}

// runStorm reruns the fig22 ring-of-flows pattern (2 hosts × 2 VMs behind
// the ToR) with bonded, monitored guests, and arms an independent
// randomized fault campaign per host at the given arrival rate. Goodput
// and availability are measured across the storm window; the cluster-wide
// invariant audit runs after recovery.
func runStorm(seed uint64, reg *obs.Registry, arena *sim.Arena, rate float64) stormCell {
	c := cluster.New(cluster.Config{
		Hosts: fig25Hosts, Seed: seed, Obs: reg, Arena: arena,
		Host: core.Config{Opts: vmm.AllOptimizations, NetbackThreads: 2},
	})
	guests := make([][]*core.Guest, fig25Hosts)
	for i := 0; i < fig25Hosts; i++ {
		for j := 0; j < fig25VMs; j++ {
			g, err := c.Host(i).Bed.AddBondedGuest(fmt.Sprintf("h%d-vm%d", i, j),
				vmm.HVM, vmm.Kernel2628, 0, j, netstack.FixedITR(2000))
			if err != nil {
				panic(err)
			}
			g.Bond.StartMonitor()
			c.Host(i).Connect(g)
			guests[i] = append(guests[i], g)
		}
	}
	perVM := model.LineRateUDP / units.BitRate(fig25VMs)
	for i := 0; i < fig25Hosts; i++ {
		next := (i + 1) % fig25Hosts
		for j := 0; j < fig25VMs; j++ {
			if _, err := c.StartFlow(c.Host(i), guests[i][j], c.Host(next), guests[next][j], perVM); err != nil {
				panic(err)
			}
		}
	}

	// Aggregate probe: total application packets delivered cluster-wide.
	// Losing one host's worth must read as an outage, hence the 0.75 bar.
	nominal := float64(fig25Hosts) * model.PacketsPerSecond(model.LineRateUDP, model.FrameSize)
	slo := chaos.NewSLO(c.Eng, reg, nominal, func() int64 {
		var total int64
		for _, hg := range guests {
			for _, g := range hg {
				total += g.Recv.Stats.AppPackets
			}
		}
		return total
	})
	slo.SetHealthyFraction(0.75)

	cell := stormCell{rate: rate}
	for i := 0; i < fig25Hosts; i++ {
		h := c.Host(i)
		inj := fault.NewInjector(c.Eng, nil)
		inj.Watch(h.Bed.Ports[0], h.Bed.PFs[0])
		plan := chaos.Plan(c.Eng, chaos.Config{
			Name:  fmt.Sprintf("fig25:h%d", i),
			Start: units.Time(stormStart), End: units.Time(stormEnd),
			Ports: 1, VFsPerPort: fig25VMs,
			StormRate:   rate,
			CascadeProb: 0.25, CascadeDelay: 50 * units.Millisecond,
		})
		if err := chaos.Arm(inj, plan); err != nil {
			panic(err)
		}
		slo.Attach(inj)
		cell.planned += len(plan)
	}

	ms := c.Measure(units.Duration(stormStart), units.Duration(stormEnd)-units.Duration(stormStart))
	c.Eng.RunUntil(units.Time(stormEnd).Add(stormTail))
	cell.rep = slo.Finish()
	c.StopAll()
	chaos.Record(reg, chaos.AuditCluster(c, nil))

	var goodput units.BitRate
	for _, m := range ms {
		goodput += core.AggregateGoodput(m.Results)
	}
	cell.goodputFrac = float64(goodput) / (float64(fig25Hosts) * float64(model.LineRateUDP))
	cell.availability = cell.rep.Availability
	cell.violations = reg.Counter("chaos.invariant_violations").Value()
	return cell
}

func buildStorm(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig25",
		Title: "Goodput and availability vs fault arrival rate on the cluster",
		Description: "The fig22 ring of cross-host flows (2 hosts × 2 bonded VMs behind the " +
			"ToR) under an independent randomized fault storm per host: Poisson arrivals of " +
			"every fault kind with recovery cascades. Goodput fraction over the storm window " +
			"and 10 ms-bucket availability per arrival rate; the invariant audit runs after " +
			"the recovery tail.",
		PaperRef: []string{
			"SR-IOV's per-host results compose across the fabric — and so does recovery",
			"availability degrades smoothly with fault pressure; conservation never breaks",
		},
	}
	goodput := f.AddSeries("goodput_fraction", "")
	avail := f.AddSeries("availability", "")
	planned := f.AddSeries("faults_planned", "")
	byRate := map[float64]stormCell{}
	var totalViolations int64
	for _, r := range results {
		c := r.(stormCell)
		label := fmt.Sprintf("rate=%g", c.rate)
		goodput.Add(label, c.goodputFrac)
		avail.Add(label, c.availability)
		planned.Add(label, float64(c.planned))
		byRate[c.rate] = c
		totalViolations += c.violations
		if c.rate == 0 {
			f.CheckTrue("fault-free cluster fully available", c.availability > 0.99,
				fmt.Sprintf("availability=%.3f", c.availability))
			f.CheckTrue("fault-free goodput near line rate", c.goodputFrac > 0.85,
				fmt.Sprintf("fraction=%.3f", c.goodputFrac))
			f.CheckTrue("zero-rate storm plans nothing", c.planned == 0,
				fmt.Sprintf("planned=%d", c.planned))
		} else {
			f.CheckTrue(label+" storm planned faults", c.planned > 0, "")
		}
	}
	if lo, hi := byRate[stormRates[0]], byRate[stormRates[len(stormRates)-1]]; hi.rate > lo.rate {
		f.CheckTrue("availability degrades under the heaviest storm", hi.availability < lo.availability,
			fmt.Sprintf("rate=%g: %.3f vs rate=%g: %.3f", lo.rate, lo.availability, hi.rate, hi.availability))
	}
	f.CheckTrue("zero invariant violations across the sweep", totalViolations == 0,
		fmt.Sprintf("violations=%d", totalViolations))
	return f
}

// SoakResult is one chaos-soak iteration's summary — the backing for
// `sriovsim -soak N`.
type SoakResult struct {
	Seed         uint64
	Planned      int
	Injected     int64
	Recoveries   int64
	Unrecovered  int64
	Availability float64
	Violations   []chaos.Violation
}

// ChaosSoak runs one randomized chaos iteration: a dense storm of every
// fault kind with recovery cascades on a bonded two-port testbed, plus the
// correlated FLR-during-mailbox-retry preset, then the full invariant
// audit. Deterministic per seed.
func ChaosSoak(seed uint64) SoakResult {
	reg := obs.NewRegistry()
	tb := core.NewTestbed(core.Config{
		Seed: seed, Ports: 2, Opts: vmm.AllOptimizations, NetbackThreads: 2, Obs: reg,
	})
	g, err := tb.AddBondedGuestOn("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, 1, netstack.DefaultAIC())
	if err != nil {
		panic(err)
	}
	g.Bond.StartMonitor()
	tb.StartUDP(g, model.LineRateUDP)

	inj := fault.NewInjector(tb.Eng, nil)
	inj.Watch(tb.Ports[0], tb.PFs[0])
	inj.Watch(tb.Ports[1], tb.PFs[1])
	plan := chaos.Plan(tb.Eng, chaos.Config{
		Name:  "soak",
		Start: units.Time(units.Second), End: units.Time(5 * units.Second),
		Ports: 2, VFsPerPort: 4,
		StormRate:   2,
		CascadeProb: 0.3, CascadeDelay: 50 * units.Millisecond,
	})
	retryAt := units.Time(1500 * units.Millisecond)
	plan = append(plan, chaos.FLRDuringMailboxRetry(retryAt, 0)...)
	if err := chaos.Arm(inj, plan); err != nil {
		panic(err)
	}
	tb.Eng.At(retryAt.Add(100*units.Microsecond), "soak:vlan-join", func() {
		// The join may race a storm-injected reset; retries or the FLR abort
		// handle it either way, so the error is immaterial to the soak.
		_ = g.VF.JoinVLAN(100)
	})

	nominal := model.PacketsPerSecond(model.LineRateUDP, model.FrameSize)
	slo := chaos.NewSLO(tb.Eng, reg, nominal, func() int64 { return g.Recv.Stats.AppPackets })
	slo.Attach(inj)

	tb.Eng.RunUntil(units.Time(6500 * units.Millisecond))
	rep := slo.Finish()
	tb.StopAll()
	vs := chaos.AuditTestbed(tb)
	chaos.Record(reg, vs)

	return SoakResult{
		Seed: seed, Planned: len(plan), Injected: inj.Injected,
		Recoveries: rep.Recoveries, Unrecovered: rep.Unrecovered,
		Availability: rep.Availability, Violations: vs,
	}
}
