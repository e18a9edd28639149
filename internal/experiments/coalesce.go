package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/workload"
)

// This file reproduces the §5.3 interrupt-coalescing studies: Fig. 8
// (UDP_STREAM), Fig. 9 (TCP_STREAM) and Fig. 10 (inter-VM overflow
// avoidance). Each policy of the sweep is an independent Point so the
// parallel runner can shard the policy axis.

func init() {
	registerPoints("fig08", "Adaptive interrupt coalescing reduces CPU overhead for UDP_STREAM",
		coalescePointsFor(fig08Point), buildFig08)
	registerPoints("fig09", "Adaptive interrupt coalescing maintains throughput with minimal CPU for TCP_STREAM",
		coalescePointsFor(fig09Point), buildFig09)
	registerPoints("fig10", "Adaptive interrupt coalescing avoids packet loss in inter-VM communication",
		coalescePointsFor(fig10Point), buildFig10)
}

// coalescePolicies are the four policies of Figs. 8–10: the low-latency
// profile, the VF driver default, the paper's AIC, and the too-slow 1 kHz.
// Policies can be stateful (AIC adapts), so every point run asks for a
// fresh set and picks its own by index.
func coalescePolicies() []netstack.ITRPolicy {
	return []netstack.ITRPolicy{
		netstack.FixedITR(model.LowLatencyITRHz),
		netstack.FixedITR(model.DefaultITRHz),
		netstack.DefaultAIC(),
		netstack.FixedITR(1000),
	}
}

// coalescePointsFor builds one Point per coalescing policy, labelled by the
// policy name, running the given per-policy measurement.
func coalescePointsFor(run func(policyIdx int, seed uint64, reg *obs.Registry, arena *sim.Arena) any) []Point {
	var pts []Point
	for i, p := range coalescePolicies() {
		i := i
		pts = append(pts, Point{Label: p.String(), Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
			return run(i, seed, reg, arena)
		}})
	}
	return pts
}

// coalesceMeasure is one policy's measurement, shared by the three figures
// (unused fields stay zero).
type coalesceMeasure struct {
	cpu    float64 // guest+xen
	dom0   float64
	tput   float64 // Mbps (fig08/09) or RX Gbps (fig10)
	intrHz float64
}

func fig08Point(policyIdx int, seed uint64, reg *obs.Registry, arena *sim.Arena) any {
	p := coalescePolicies()[policyIdx]
	r := runSRIOV(core.Config{Seed: seed, Ports: 1, Opts: vmm.AllOptimizations, Obs: reg, Arena: arena}, 1, vmm.HVM, vmm.Kernel2628,
		func() netstack.ITRPolicy { return p }, model.LineRateUDP, aicWarm)
	m := coalesceMeasure{cpu: r.util.Guests + r.util.Xen, dom0: r.util.Dom0, tput: r.goodput.Mbps()}
	// Recover the interrupt rate from the guest's receiver.
	for _, g := range r.bed.Guests() {
		m.intrHz = float64(g.Recv.Stats.Interrupts) / r.bed.Eng.Now().Seconds()
	}
	return m
}

// buildFig08 assembles the UDP_STREAM policy sweep for a single HVM guest
// receiving at 1 GbE line rate.
func buildFig08(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig08",
		Title: "UDP_STREAM CPU utilization and bandwidth vs interrupt coalescing policy",
		Description: "One HVM 2.6.28 guest with a VF at 1 GbE line rate; x-axis is the " +
			"coalescing policy (20 kHz low-latency, 2 kHz VF default, AIC, 1 kHz).",
		PaperRef: []string{
			"throughput stays at 957 Mbps for 20 kHz, 2 kHz and AIC",
			"~40% CPU saving from 20 kHz to 2 kHz; AIC reduces further",
			"dom0 stays ≈1.5% throughout",
		},
	}
	cpuS := f.AddSeries("guest+xen-cpu", "%")
	tputS := f.AddSeries("throughput", "Mbps")
	dom0S := f.AddSeries("dom0", "%")
	ifS := f.AddSeries("interrupt-rate", "Hz")

	for i, pol := range coalescePolicies() {
		m := results[i].(coalesceMeasure)
		label := pol.String()
		cpuS.Add(label, m.cpu)
		tputS.Add(label, m.tput)
		dom0S.Add(label, m.dom0)
		ifS.Add(label, m.intrHz)
	}

	for _, label := range []string{"20kHz", "2kHz", "AIC"} {
		y, _ := tputS.Y(label)
		f.CheckRange("throughput at line rate ("+label+")", y, 945, 965)
	}
	c20, _ := cpuS.Y("20kHz")
	c2, _ := cpuS.Y("2kHz")
	cAIC, _ := cpuS.Y("AIC")
	f.CheckRange("20k→2k CPU saving ≈40%", (c20-c2)/c20*100, 20, 55)
	f.CheckTrue("AIC cheapest among lossless policies", cAIC < c2 && c2 < c20,
		fmt.Sprintf("20k=%.1f 2k=%.1f aic=%.1f", c20, c2, cAIC))
	for _, p := range dom0S.Points {
		f.CheckRange("dom0 near baseline ("+p.X+")", p.Y, 0, 5)
	}
	return f
}

func fig09Point(policyIdx int, seed uint64, reg *obs.Registry, arena *sim.Arena) any {
	p := coalescePolicies()[policyIdx]
	tb := core.NewTestbed(core.Config{Seed: seed, Ports: 1, Opts: vmm.AllOptimizations, Obs: reg, Arena: arena})
	g, err := tb.AddSRIOVGuest("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, p)
	if err != nil {
		panic(err)
	}
	tb.StartTCP(g, p)
	u, res := tb.Measure(aicWarm, window)
	tb.StopAll()
	chaos.Record(reg, chaos.AuditTestbed(tb))
	return coalesceMeasure{cpu: u.Guests + u.Xen, tput: res[g].Goodput.Mbps()}
}

// buildFig09 assembles the TCP_STREAM counterpart: the 1 kHz policy hurts
// throughput.
func buildFig09(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig09",
		Title: "TCP_STREAM throughput and CPU vs interrupt coalescing policy",
		Description: "One HVM 2.6.28 guest; the TCP source runs at the steady-state " +
			"equilibrium for each policy (window/RTT and receive-buffer overflow " +
			"limited).",
		PaperRef: []string{
			"throughput holds 940 Mbps for 20 kHz, 2 kHz and AIC",
			"a 9.6% throughput drop at fixed 1 kHz — TCP is latency sensitive",
			"~50% CPU saving from 20 kHz to 2 kHz",
		},
	}
	cpuS := f.AddSeries("guest+xen-cpu", "%")
	tputS := f.AddSeries("throughput", "Mbps")

	for i, pol := range coalescePolicies() {
		m := results[i].(coalesceMeasure)
		cpuS.Add(pol.String(), m.cpu)
		tputS.Add(pol.String(), m.tput)
	}

	for _, label := range []string{"20kHz", "2kHz", "AIC"} {
		y, _ := tputS.Y(label)
		f.CheckRange("TCP at 940 Mbps ("+label+")", y, 925, 950)
	}
	t1k, _ := tputS.Y("1kHz")
	drop := (940 - t1k) / 940 * 100
	f.CheckRange("1 kHz TCP drop ≈9.6%", drop, 5, 15)
	c20, _ := cpuS.Y("20kHz")
	c2, _ := cpuS.Y("2kHz")
	f.CheckRange("20k→2k CPU saving ≈50%", (c20-c2)/c20*100, 20, 60)
	return f
}

// fig10Offered is the inter-VM offered load: dom0 pushes through the NIC's
// internal switch faster than the wire rate (§6.3).
const fig10Offered = 2750 * units.Mbps

func fig10Point(policyIdx int, seed uint64, reg *obs.Registry, arena *sim.Arena) any {
	p := coalescePolicies()[policyIdx]
	tb := core.NewTestbed(core.Config{Seed: seed, Ports: 1, Opts: vmm.AllOptimizations, Obs: reg, Arena: arena})
	g, err := tb.AddSRIOVGuest("guest-1", vmm.HVM, vmm.Kernel2628, 0, 0, p)
	if err != nil {
		panic(err)
	}
	// dom0's sender: periodic batches through the internal switch.
	pfq := tb.Ports[0].PFQueue()
	src := workload.NewSource(tb.Eng, fig10Offered, model.FrameSize, func(n int, b units.Size) {
		tb.HV.ChargeDom0(units.Cycles(n) * 2500)
		tb.Ports[0].SendInternal(pfq, nic.Batch{Dst: g.MAC, Count: n, Bytes: b})
	})
	src.Start()
	u, res := tb.Measure(aicWarm, window)
	src.Stop()
	tb.StopAll()
	chaos.Record(reg, chaos.AuditTestbed(tb))
	return coalesceMeasure{cpu: u.Guests + u.Xen, tput: res[g].Goodput.Gbps()}
}

// buildFig10 assembles the inter-VM overflow study: fixed low interrupt
// rates overflow the receive buffers while AIC adapts.
func buildFig10(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig10",
		Title: "Inter-VM communication: TX vs RX bandwidth per coalescing policy",
		Description: "dom0 sends to a guest VF through the NIC-internal L2 switch at " +
			"~2.75 Gbps (above the wire rate, §6.3); packets beyond the per-interrupt " +
			"socket burst are lost at fixed low interrupt rates.",
		PaperRef: []string{
			"TX bandwidth stays flat; RX < TX at 2 kHz and 1 kHz (receive-buffer overflow)",
			"AIC raises the interrupt rate with throughput and avoids the loss",
			"20 kHz avoids loss too but at excessive CPU",
		},
	}
	txS := f.AddSeries("tx-bw", "Gbps")
	rxS := f.AddSeries("rx-bw", "Gbps")
	cpuS := f.AddSeries("guest+xen-cpu", "%")

	for i, pol := range coalescePolicies() {
		m := results[i].(coalesceMeasure)
		label := pol.String()
		txS.Add(label, fig10Offered.Gbps())
		rxS.Add(label, m.tput)
		cpuS.Add(label, m.cpu)
	}

	rxAIC, _ := rxS.Y("AIC")
	rx20, _ := rxS.Y("20kHz")
	rx2, _ := rxS.Y("2kHz")
	rx1, _ := rxS.Y("1kHz")
	f.CheckRange("AIC avoids loss (RX≈TX)", rxAIC, 2.6, 2.8)
	f.CheckRange("20 kHz avoids loss (RX≈TX)", rx20, 2.6, 2.8)
	f.CheckTrue("2 kHz loses packets (RX<TX)", rx2 < 0.9*fig10Offered.Gbps(), fmt.Sprintf("rx=%.2f", rx2))
	f.CheckTrue("1 kHz loses more", rx1 < rx2, fmt.Sprintf("1k=%.2f 2k=%.2f", rx1, rx2))
	c20, _ := cpuS.Y("20kHz")
	cAIC, _ := cpuS.Y("AIC")
	f.CheckTrue("AIC cheaper than 20 kHz", cAIC < c20, fmt.Sprintf("aic=%.1f 20k=%.1f", cAIC, c20))
	return f
}
