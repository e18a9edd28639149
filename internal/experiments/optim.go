package experiments

import (
	"fmt"

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

// This file reproduces the optimization studies: Fig. 6 (mask/unmask
// acceleration), Fig. 7 (VM-exit breakdown and EOI acceleration) and
// Fig. 12 (all optimizations at aggregate 10 GbE). Fig. 6 shards its
// VM-count axis, Fig. 7 its two tracing runs, Fig. 12 its optimization
// ladder.

func init() {
	registerPoints("fig06", "CPU utilization and throughput in SR-IOV with a 64-bit RHEL5U1 HVM guest",
		fig06Points(), buildFig06)
	registerPoints("fig07", "Virtualization overhead per second, based on VM-exit events",
		fig07Points(), buildFig07)
	registerPoints("fig12", "Impact of the optimizations for SR-IOV with aggregate 10 Gbps Ethernet",
		fig12Points(), buildFig12)
}

// fig06VMCounts is Fig. 6's x-axis: guests sharing one 1 GbE port.
var fig06VMCounts = []int{1, 2, 3, 4, 5, 6, 7}

// fig06Measure is one VM count's pair of runs.
type fig06Measure struct {
	dom0Unopt, dom0Opt float64
	tputUnopt, tputOpt float64 // Mbps
}

func fig06Points() []Point {
	pts := make([]Point, 0, len(fig06VMCounts))
	for _, n := range fig06VMCounts {
		n := n
		pts = append(pts, Point{Label: fmt.Sprintf("%d-VM", n), Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
			rate := perPortRate(n, 1)
			// Warm past the dynamic moderation's first pps sample so shared
			// ports measure at the settled interrupt rate.
			unopt := runSRIOV(core.Config{Seed: seed, Ports: 1, Obs: reg, Arena: arena}, n,
				vmm.HVM, vmm.KernelRHEL5, dynamicPolicy, rate, aicWarm)
			opt := runSRIOV(core.Config{Seed: seed, Ports: 1, Opts: vmm.Optimizations{MaskAccel: true}, Obs: reg, Arena: arena}, n,
				vmm.HVM, vmm.KernelRHEL5, dynamicPolicy, rate, aicWarm)
			return fig06Measure{
				dom0Unopt: unopt.util.Dom0, dom0Opt: opt.util.Dom0,
				tputUnopt: unopt.goodput.Mbps(), tputOpt: opt.goodput.Mbps(),
			}
		}})
	}
	return pts
}

// buildFig06 assembles §5.1: 1–7 HVM guests (RHEL5U1, which masks/unmasks
// MSI around every interrupt) sharing one 1 GbE port; dom0 CPU with mask
// emulation in the device model vs in the hypervisor.
func buildFig06(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig06",
		Title: "CPU utilization and throughput, SR-IOV, RHEL5U1 HVM, one 1 GbE port",
		Description: "n guests share one port; the horizontal axis is the guest count. " +
			"Unoptimized, MSI mask/unmask bounces through the dom0 device model; " +
			"optimized, the hypervisor emulates it directly (§5.1).",
		PaperRef: []string{
			"dom0 CPU rises from 17% (1 VM) to 30% (7 VMs) unoptimized",
			"dom0 CPU drops to ~3% in all cases with the optimization",
			"throughput stays flat at the line rate as VM# scales",
		},
	}
	dom0Unopt := f.AddSeries("dom0-unopt", "%")
	dom0Opt := f.AddSeries("dom0-opt", "%")
	tputUnopt := f.AddSeries("throughput-unopt", "Mbps")
	tputOpt := f.AddSeries("throughput-opt", "Mbps")

	for i, n := range fig06VMCounts {
		m := results[i].(fig06Measure)
		label := fmt.Sprintf("%d-VM", n)
		dom0Unopt.Add(label, m.dom0Unopt)
		tputUnopt.Add(label, m.tputUnopt)
		dom0Opt.Add(label, m.dom0Opt)
		tputOpt.Add(label, m.tputOpt)
	}

	one, _ := dom0Unopt.Y("1-VM")
	seven, _ := dom0Unopt.Y("7-VM")
	f.CheckRange("dom0 unoptimized at 1 VM ≈17%", one, 10, 26)
	f.CheckRange("dom0 unoptimized at 7 VMs ≈30%", seven, 22, 42)
	f.CheckTrue("dom0 grows with VM#", seven > one, fmt.Sprintf("1VM=%.1f 7VM=%.1f", one, seven))
	for _, p := range dom0Opt.Points {
		f.CheckRange("dom0 optimized ≈3% ("+p.X+")", p.Y, 0, 6)
	}
	for _, s := range []*report.Series{tputUnopt, tputOpt} {
		for _, p := range s.Points {
			f.CheckRange("throughput at line rate ("+s.Name+" "+p.X+")", p.Y, 930, 970)
		}
	}
	return f
}

// fig07Hops are the packet-path hops whose latency percentiles Fig. 7's
// companion series report: the end-to-end doorbell→interrupt delta (carries
// the EITR throttle wait) and the interrupt→drain delta (the ISR's share).
var fig07Hops = []string{obs.HopDoorbellToIntr, obs.HopIntrToDrain}

// hopQuantiles is one hop's latency summary in microseconds.
type hopQuantiles struct {
	p50, p95, p99 float64
}

// fig07Measure is one tracing run: the per-exit-reason breakdown, total
// cycles/second, and the VF queue's per-hop latency percentiles.
type fig07Measure struct {
	perReason vmm.ExitTrace
	total     float64
	hops      map[string]hopQuantiles
}

func quantMicros(h *obs.Hist, q float64) float64 {
	return float64(h.Quantile(q)) / float64(units.Microsecond)
}

// fig07Run traces all VM-exits of a single HVM guest at 1 GbE line rate.
func fig07Run(seed uint64, reg *obs.Registry, arena *sim.Arena, opts vmm.Optimizations) fig07Measure {
	tb := core.NewTestbed(core.Config{Seed: seed, Ports: 1, Opts: opts, Obs: reg, Arena: arena})
	g, err := tb.AddSRIOVGuest("guest-1", vmm.HVM, vmm.KernelRHEL5, 0, 0, dynamicPolicy())
	if err != nil {
		panic(err)
	}
	tb.StartUDP(g, model.LineRateUDP)
	tb.Eng.RunUntil(tb.Eng.Now().Add(warmup))
	tb.HV.ResetExitTrace()
	start := tb.Eng.Now()
	end := tb.Eng.RunUntil(start.Add(window))
	tb.StopAll()
	chaos.Record(reg, chaos.AuditTestbed(tb))
	// Add the timer tick's APIC traffic for the window (charged
	// analytically elsewhere; reflect it in the trace for parity).
	tb.HV.ChargeTimerBaseline(g.Dom, window)
	secs := end.Sub(start).Seconds()
	trace := tb.HV.Exits()
	var tot float64
	for _, rec := range trace {
		tot += float64(rec.Cycles)
	}
	hops := make(map[string]hopQuantiles, len(fig07Hops))
	for _, hop := range fig07Hops {
		h := tb.Obs.FindHistogram("path.eth0/vf0." + hop)
		hops[hop] = hopQuantiles{
			p50: quantMicros(h, 0.50), p95: quantMicros(h, 0.95), p99: quantMicros(h, 0.99),
		}
	}
	return fig07Measure{perReason: trace, total: tot / secs, hops: hops}
}

func fig07Points() []Point {
	return []Point{
		{Label: "unopt", Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
			return fig07Run(seed, reg, arena, vmm.Optimizations{MaskAccel: true})
		}},
		{Label: "eoi-accel", Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
			return fig07Run(seed, reg, arena, vmm.Optimizations{MaskAccel: true, EOIAccel: true})
		}},
	}
}

// buildFig07 assembles §5.2: the VM-exit breakdown before and after
// virtual-EOI acceleration.
func buildFig07(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig07",
		Title: "Virtualization overhead per second by VM-exit type",
		Description: "Hypervisor cycles per second spent in each VM-exit class for one " +
			"HVM guest at 1 GbE line rate, with and without the Exit-qualification EOI " +
			"fast path (§5.2).",
		PaperRef: []string{
			"APIC-access exits are ~90% of total virtualization overhead (139M of 154M cycles/s)",
			"EOI writes are 47% of APIC-access exits",
			"EOI acceleration removes 28% of total overhead (154M → 111M cycles/s)",
			"per-exit EOI emulation cost drops from 8.4K to 2.5K cycles",
		},
	}
	unoptM := results[0].(fig07Measure)
	optM := results[1].(fig07Measure)
	unopt, totalUnopt := unoptM.perReason, unoptM.total
	opt, totalOpt := optM.perReason, optM.total

	sBefore := f.AddSeries("cycles/s-unopt", "Mcycles")
	sAfter := f.AddSeries("cycles/s-eoi-accel", "Mcycles")
	for _, reason := range []vmm.ExitReason{vmm.ExitExtInt, vmm.ExitAPICEOI, vmm.ExitAPICOther, vmm.ExitMSIMask} {
		sBefore.Add(reason.String(), float64(unopt[reason].Cycles)/1e6)
		sAfter.Add(reason.String(), float64(opt[reason].Cycles)/1e6)
	}

	// Shape checks against the paper's decomposition.
	apic := float64(unopt[vmm.ExitAPICEOI].Cycles + unopt[vmm.ExitAPICOther].Cycles)
	// The paper reports ~90%; our model keeps a larger share in the
	// external-interrupt and (accelerated) mask exits, landing ~75%.
	f.CheckRange("APIC-access dominates overhead (paper ≈90%)", apic/totalUnopt*window.Seconds()*100, 70, 97)
	eoiShare := float64(unopt[vmm.ExitAPICEOI].Count) /
		float64(unopt[vmm.ExitAPICEOI].Count+unopt[vmm.ExitAPICOther].Count) * 100
	f.CheckRange("EOI share of APIC exits ≈47%", eoiShare, 35, 60)
	f.CheckRange("total overhead ≈154M cycles/s", totalUnopt/1e6, 100, 220)
	reduction := (totalUnopt - totalOpt) / totalUnopt * 100
	f.CheckRange("EOI acceleration removes ≈28%", reduction, 15, 40)
	perExitBefore := float64(unopt[vmm.ExitAPICEOI].Cycles) / float64(unopt[vmm.ExitAPICEOI].Count)
	perExitAfter := float64(opt[vmm.ExitAPICEOI].Cycles) / float64(opt[vmm.ExitAPICEOI].Count)
	f.CheckRange("per-exit EOI cost before = 8.4K", perExitBefore, 8300, 8500)
	f.CheckRange("per-exit EOI cost after = 2.5K", perExitAfter, 2400, 2600)

	tot := f.AddSeries("total", "Mcycles/s")
	tot.Add("unopt", totalUnopt/1e6)
	tot.Add("eoi-accel", totalOpt/1e6)

	// Per-hop packet-path latency percentiles for the VF queue, pinned with
	// the other series by the figure's CSV golden.
	for _, hop := range fig07Hops {
		add := f.AddLatencyPercentiles("lat-" + hop)
		for i, label := range []string{"unopt", "eoi-accel"} {
			q := results[i].(fig07Measure).hops[hop]
			add(label, q.p50, q.p95, q.p99)
		}
	}
	return f
}

func init() {
	// Fig. 7's single-guest line-rate run doubles as the `-trace-out`
	// workload: one VF, every control-plane event and packet hop visible.
	setObserve("fig07", func(tr *obs.Trace) {
		seed := PointSeed("fig07", "observe")
		tb := core.NewTestbed(core.Config{Seed: seed, Ports: 1,
			Opts: vmm.Optimizations{MaskAccel: true, EOIAccel: true}})
		tb.SetTracer(tr)
		g, err := tb.AddSRIOVGuest("guest-1", vmm.HVM, vmm.KernelRHEL5, 0, 0, dynamicPolicy())
		if err != nil {
			panic(err)
		}
		tb.StartUDP(g, model.LineRateUDP)
		tb.Eng.RunUntil(tb.Eng.Now().Add(warmup + window))
		tb.StopAll()
	})
}

// fig12Rows is the optimization ladder of §6.2, plus the native baseline.
type fig12Row struct {
	label  string
	kernel vmm.KernelConfig
	typ    vmm.DomainType
	opts   vmm.Optimizations
	policy func() netstack.ITRPolicy
	warm   units.Duration
}

func fig12Rows() []fig12Row {
	return []fig12Row{
		{"2.6.18-unopt", vmm.KernelRHEL5, vmm.HVM, vmm.Optimizations{}, dynamicPolicy, warmup},
		{"2.6.18-msi", vmm.KernelRHEL5, vmm.HVM, vmm.Optimizations{MaskAccel: true}, dynamicPolicy, warmup},
		{"2.6.28-base", vmm.Kernel2628, vmm.HVM, vmm.Optimizations{MaskAccel: true}, dynamicPolicy, warmup},
		{"2.6.28-eoi", vmm.Kernel2628, vmm.HVM, vmm.Optimizations{MaskAccel: true, EOIAccel: true}, dynamicPolicy, warmup},
		{"2.6.28-eoi-aic", vmm.Kernel2628, vmm.HVM, vmm.Optimizations{MaskAccel: true, EOIAccel: true}, aicPolicy, aicWarm},
		{"native", vmm.Kernel2628, vmm.Native, vmm.Optimizations{}, dynamicPolicy, warmup},
	}
}

func fig12Points() []Point {
	rows := fig12Rows()
	pts := make([]Point, 0, len(rows))
	for i, row := range rows {
		i, label := i, row.label
		pts = append(pts, Point{Label: label, Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
			row := fig12Rows()[i]
			r := runSRIOV(core.Config{Seed: seed, Ports: 10, Opts: row.opts, Obs: reg, Arena: arena}, 10,
				row.typ, row.kernel, row.policy, model.LineRateUDP, row.warm)
			return r.measure()
		}})
	}
	return pts
}

// buildFig12 assembles §6.2: aggregate 10 GbE (10 VMs on 10 ports), CPU
// utilization under the optimization ladder for both kernels, plus the
// native baseline.
func buildFig12(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig12",
		Title: "Impact of the optimizations, aggregate 10 Gbps Ethernet (10 VMs)",
		Description: "Total server CPU (percent of one thread; 100% = one thread) for " +
			"the optimization ladder. 2.6.18 guests hammer MSI mask/unmask; 2.6.28 " +
			"guests do not, so their ladder starts at EOI acceleration.",
		PaperRef: []string{
			"2.6.18 HVM: MSI optimization reduces CPU from 499% to 227% (dom0 −208, guest −16, Xen −48)",
			"2.6.28 HVM: EOI acceleration −23%, AIC −24% more, landing at 193% @ 9.57 Gbps",
			"native baseline: all-optimized SR-IOV is only 48% above native",
		},
	}
	total := f.AddSeries("total-cpu", "%")
	dom0 := f.AddSeries("dom0", "%")
	xen := f.AddSeries("xen", "%")
	guests := f.AddSeries("guests", "%")
	tput := f.AddSeries("throughput", "Gbps")

	rows := fig12Rows()
	vals := map[string]bedMeasure{}
	for i, row := range rows {
		m := results[i].(bedMeasure)
		vals[row.label] = m
		total.Add(row.label, m.total)
		dom0.Add(row.label, m.dom0)
		xen.Add(row.label, m.xen)
		guests.Add(row.label, m.guests)
		tput.Add(row.label, m.tput)
	}

	// Shape checks.
	f.CheckRange("2.6.18 unoptimized total ≈499%", vals["2.6.18-unopt"].total, 380, 620)
	f.CheckRange("2.6.18 + MSI accel ≈227%", vals["2.6.18-msi"].total, 160, 300)
	msiSave := vals["2.6.18-unopt"].total - vals["2.6.18-msi"].total
	dom0Save := vals["2.6.18-unopt"].dom0 - vals["2.6.18-msi"].dom0
	f.CheckTrue("most MSI savings are dom0", dom0Save > 0.6*msiSave,
		fmt.Sprintf("dom0 −%.0f of −%.0f", dom0Save, msiSave))
	eoiSave := vals["2.6.28-base"].total - vals["2.6.28-eoi"].total
	aicSave := vals["2.6.28-eoi"].total - vals["2.6.28-eoi-aic"].total
	f.CheckRange("EOI acceleration saves ≈23 points", eoiSave, 8, 80)
	f.CheckRange("AIC saves ≈24 more points", aicSave, 8, 80)
	f.CheckRange("all-optimized total ≈193%", vals["2.6.28-eoi-aic"].total, 140, 240)
	native := vals["native"].total
	f.CheckTrue("all-opt within ~1.6× of native",
		vals["2.6.28-eoi-aic"].total < native*1.9,
		fmt.Sprintf("opt=%.0f native=%.0f", vals["2.6.28-eoi-aic"].total, native))
	// Iterate rows, not the map: check order must be deterministic so the
	// rendered report is byte-identical run to run.
	for _, row := range rows {
		f.CheckRange("line-rate throughput ("+row.label+")", vals[row.label].tput, 9.3, 9.7)
	}
	return f
}
