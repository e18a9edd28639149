package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// This file reproduces the §6.4–§6.6 scalability studies: Fig. 15/16
// (SR-IOV, HVM and PVM), Fig. 17/18 (PV NIC, HVM and PVM) and Fig. 19
// (VMDq). Every (path, domain type, VM count) cell of the sweeps is an
// independent Point, so the parallel runner shards the VM-count axis.

func init() {
	registerPoints("fig15", "SR-IOV scalability in HVM",
		sweepPoints(false, vmm.HVM, ""), buildFig15)
	// Fig. 16 compares PVM against HVM, so its point list carries both
	// sweeps; the HVM half is keyed like Fig. 15's, so a run of both
	// measures each cell once.
	registerPoints("fig16", "SR-IOV scalability in PVM",
		append(sweepPoints(false, vmm.PVM, ""), sweepPoints(false, vmm.HVM, "hvm-")...), buildFig16)
	registerPoints("fig17", "PV NIC scalability in HVM",
		sweepPoints(true, vmm.HVM, ""), buildFig17)
	registerPoints("fig18", "PV NIC scalability in PVM",
		append(sweepPoints(true, vmm.PVM, ""), sweepPoints(true, vmm.HVM, "hvm-")...), buildFig18)
	registerPoints("fig19", "VMDq scalability in PVM", fig19Points(), buildFig19)
}

// vmCounts is the x-axis of all scalability figures.
var vmCounts = []int{10, 20, 30, 40, 50, 60}

// sweepKey identifies one sweep cell. Fig. 15/16 and 17/18 plot each
// other's HVM sweeps, so a cell may belong to two figures' point lists.
type sweepKey struct {
	pv  bool // PV split driver path (vs SR-IOV VFs)
	typ vmm.DomainType
	n   int
}

func (k sweepKey) path() string {
	if k.pv {
		return "pv"
	}
	return "sriov"
}

// seed is the stable engine seed of one sweep cell. It deliberately
// ignores the per-point seed of whichever figure runs the cell: a cell must
// measure the same for Fig. 15 as for Fig. 16, so that a runner can share
// it between them (see Point.Key).
func (k sweepKey) seed() uint64 {
	return sim.StableSeed("scale", k.path(), k.typ.String(), fmt.Sprintf("%d", k.n))
}

// sweepPoint measures one sweep cell into reg, on the cell's own seed. The
// runner merges a shared cell's registry once, however many figures plot
// the cell.
func sweepPoint(k sweepKey, reg *obs.Registry, arena *sim.Arena) bedMeasure {
	cfg := core.Config{Seed: k.seed(), Ports: 10, Opts: vmm.AllOptimizations, Obs: reg, Arena: arena}
	if k.pv {
		cfg.NetbackThreads = model.NetbackThreadsEnhanced
		return runPV(cfg, k.n, k.typ, vmm.Kernel2628, perPortRate(k.n, 10)).measure()
	}
	return runSRIOV(cfg, k.n, k.typ, vmm.Kernel2628, aicPolicy, perPortRate(k.n, 10), aicWarm).measure()
}

// sweepPoints builds one Point per VM count for the given path and domain
// type, labelled prefix+count ("10" … "60", or "hvm-10" … for a figure's
// comparison sweep) and keyed by cell, so figures sharing a cell share its
// run.
func sweepPoints(pv bool, typ vmm.DomainType, prefix string) []Point {
	pts := make([]Point, 0, len(vmCounts))
	for _, n := range vmCounts {
		k := sweepKey{pv: pv, typ: typ, n: n}
		pts = append(pts, Point{
			Label: fmt.Sprintf("%s%d", prefix, n),
			Key:   fmt.Sprintf("scale/%s/%s/%d", k.path(), k.typ, k.n),
			Run:   func(_ uint64, reg *obs.Registry, arena *sim.Arena) any { return sweepPoint(k, reg, arena) },
		})
	}
	return pts
}

// sweepOf reindexes six point results (in vmCounts order) by VM count.
func sweepOf(results []any) map[int]bedMeasure {
	out := make(map[int]bedMeasure, len(vmCounts))
	for i, n := range vmCounts {
		out[n] = results[i].(bedMeasure)
	}
	return out
}

// fillScale adds the standard five scalability series.
func fillScale(f *report.Figure, sw map[int]bedMeasure) {
	totalS := f.AddSeries("total-cpu", "%")
	dom0S := f.AddSeries("dom0", "%")
	xenS := f.AddSeries("xen", "%")
	guestS := f.AddSeries("guests", "%")
	tputS := f.AddSeries("throughput", "Gbps")
	for _, n := range vmCounts {
		label := fmt.Sprintf("%d", n)
		m := sw[n]
		totalS.Add(label, m.total)
		dom0S.Add(label, m.dom0)
		xenS.Add(label, m.xen)
		guestS.Add(label, m.guests)
		tputS.Add(label, m.tput)
	}
}

// slope reports the per-VM CPU increment between 10 and 60 VMs.
func slopeOf(sw map[int]bedMeasure) float64 { return (sw[60].total - sw[10].total) / 50 }

// buildFig15 assembles SR-IOV HVM scalability.
func buildFig15(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig15",
		Title: "SR-IOV scalability, HVM, 10–60 VMs, aggregate 10 GbE",
		Description: "VMs share the ten ports' VFs (Fig. 11's allocation); each VM " +
			"receives its port's fair share so the aggregate offered load is the " +
			"10 Gbps line rate throughout.",
		PaperRef: []string{
			"throughput holds 9.57 Gbps from 10 to 60 VMs",
			"each additional HVM guest costs ~2.8% CPU",
		},
	}
	sw := sweepOf(results)
	fillScale(f, sw)
	for _, n := range vmCounts {
		f.CheckRange(fmt.Sprintf("line rate at %d VMs", n), sw[n].tput, 9.3, 9.7)
	}
	f.CheckRange("per-VM CPU slope ≈2.8%", slopeOf(sw), 1.2, 4.5)
	f.CheckTrue("CPU grows monotonically", sw[60].total > sw[30].total && sw[30].total > sw[10].total,
		fmt.Sprintf("10=%.0f 30=%.0f 60=%.0f", sw[10].total, sw[30].total, sw[60].total))
	return f
}

// buildFig16 assembles SR-IOV PVM scalability (points: six PVM cells then
// six HVM comparison cells).
func buildFig16(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig16",
		Title: "SR-IOV scalability, PVM, 10–60 VMs, aggregate 10 GbE",
		PaperRef: []string{
			"throughput holds 9.57 Gbps from 10 to 60 VMs",
			"each additional PVM guest costs ~1.76% CPU (event channels beat virtual LAPIC)",
			"at 10 VMs PVM consumes slightly more than HVM (x86-64 page-table switch per syscall)",
		},
	}
	pv := sweepOf(results[:len(vmCounts)])
	hv := sweepOf(results[len(vmCounts):])
	fillScale(f, pv)
	for _, n := range vmCounts {
		f.CheckRange(fmt.Sprintf("line rate at %d VMs", n), pv[n].tput, 9.3, 9.7)
	}
	pvSlope, hvSlope := slopeOf(pv), slopeOf(hv)
	f.CheckRange("per-VM CPU slope ≈1.76%", pvSlope, 0.4, 3.0)
	f.CheckTrue("PVM slope below HVM slope (2.8 vs 1.76)", pvSlope < hvSlope,
		fmt.Sprintf("pvm=%.2f hvm=%.2f", pvSlope, hvSlope))
	f.CheckTrue("at 10 VMs PVM ≥ HVM (syscall page-table switch)",
		pv[10].total > hv[10].total-5,
		fmt.Sprintf("pvm=%.0f hvm=%.0f", pv[10].total, hv[10].total))
	cmp := f.AddSeries("hvm-total-cpu", "%")
	for _, n := range vmCounts {
		cmp.Add(fmt.Sprintf("%d", n), hv[n].total)
	}
	return f
}

// buildFig17 assembles PV NIC HVM scalability.
func buildFig17(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig17",
		Title: "PV NIC scalability, HVM, enhanced multi-thread netback",
		PaperRef: []string{
			"CPU rises and throughput drops as VM# increases",
			"dom0 ≈431% (event-channel→LAPIC conversion on top of the copy)",
		},
	}
	sw := sweepOf(results)
	fillScale(f, sw)
	f.CheckTrue("throughput declines with VM#", sw[60].tput < 0.9*sw[10].tput,
		fmt.Sprintf("10=%.2f 60=%.2f", sw[10].tput, sw[60].tput))
	f.CheckRange("dom0 at 60 VMs ≈431%", sw[60].dom0, 330, 560)
	f.CheckTrue("dom0 grows with VM#", sw[60].dom0 > sw[10].dom0,
		fmt.Sprintf("10=%.0f 60=%.0f", sw[10].dom0, sw[60].dom0))
	return f
}

// buildFig18 assembles PV NIC PVM scalability (points: six PVM cells then
// six HVM comparison cells).
func buildFig18(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig18",
		Title: "PV NIC scalability, PVM, enhanced multi-thread netback",
		PaperRef: []string{
			"CPU rises and throughput drops as VM# increases",
			"dom0 ≈324%, lower than HVM's 431% (no interrupt conversion layer)",
			"guests consume slightly more than in HVM (hypervisor page-table switch per syscall)",
		},
	}
	pv := sweepOf(results[:len(vmCounts)])
	hv := sweepOf(results[len(vmCounts):])
	fillScale(f, pv)
	f.CheckTrue("throughput declines with VM#", pv[60].tput < 0.9*pv[10].tput,
		fmt.Sprintf("10=%.2f 60=%.2f", pv[10].tput, pv[60].tput))
	f.CheckRange("dom0 at 60 VMs ≈324%", pv[60].dom0, 250, 480)
	f.CheckTrue("HVM dom0 above PVM dom0 (431 vs 324)", hv[60].dom0 > pv[60].dom0,
		fmt.Sprintf("hvm=%.0f pvm=%.0f", hv[60].dom0, pv[60].dom0))
	f.CheckTrue("PVM guests above HVM guests per delivered bit",
		pv[10].guests/pv[10].tput > hv[10].guests/hv[10].tput*0.98,
		fmt.Sprintf("pvm=%.1f hvm=%.1f %%/Gbps", pv[10].guests/pv[10].tput, hv[10].guests/hv[10].tput))
	return f
}

// fig19Points builds the VMDq sweep: one point per VM count on the 82598
// 10 GbE testbed.
func fig19Points() []Point {
	pts := make([]Point, 0, len(vmCounts))
	for _, n := range vmCounts {
		n := n
		pts = append(pts, Point{Label: fmt.Sprintf("%d", n), Run: func(seed uint64, reg *obs.Registry, arena *sim.Arena) any {
			tb := core.NewTestbed(core.Config{
				Seed: seed, Ports: 1, PortRate: model.VMDqRate, Opts: vmm.AllOptimizations,
				VMDqThreads: 2, NetbackThreads: 2, Obs: reg, Arena: arena,
			})
			perVM := units.BitRate(float64(model.VMDqRate) / float64(n))
			for i := 0; i < n; i++ {
				g, err := tb.AddBackendGuest("vmdq", fmt.Sprintf("guest-%d", i+1), vmm.PVM, vmm.Kernel2628, 0, 0, nil)
				if err != nil {
					panic(err)
				}
				tb.StartUDP(g, perVM)
			}
			u, res := tb.Measure(warmup, window)
			tb.StopAll()
			chaos.Record(reg, chaos.AuditTestbed(tb))
			return bedResult{util: u, goodput: core.AggregateGoodput(res)}.measure()
		}})
	}
	return pts
}

// buildFig19 assembles the VMDq comparison on a 10 GbE 82598.
func buildFig19(results []any) *report.Figure {
	f := &report.Figure{
		ID:    "fig19",
		Title: "VMDq scalability, PVM, 82598 10 GbE",
		Description: "The NIC has 8 queue pairs; dom0 takes one, so 7 guests get VMDq " +
			"service (no copy, but dom0 still translates/protects per packet); the rest " +
			"fall back to the copying PV path.",
		PaperRef: []string{
			"performance peaks at 10 VMs and drops progressively as VM# increases",
			"only 7 guests get VMDq support; the rest share the network like PV NIC",
		},
	}
	sw := sweepOf(results)
	totalS := f.AddSeries("total-cpu", "%")
	dom0S := f.AddSeries("dom0", "%")
	tputS := f.AddSeries("throughput", "Gbps")
	for _, n := range vmCounts {
		label := fmt.Sprintf("%d", n)
		totalS.Add(label, sw[n].total)
		dom0S.Add(label, sw[n].dom0)
		tputS.Add(label, sw[n].tput)
	}
	f.CheckTrue("peak at 10 VMs", sw[10].tput > sw[20].tput && sw[10].tput > sw[60].tput,
		fmt.Sprintf("10=%.2f 20=%.2f 60=%.2f", sw[10].tput, sw[20].tput, sw[60].tput))
	f.CheckTrue("progressive decline", sw[60].tput < 0.7*sw[10].tput,
		fmt.Sprintf("10=%.2f 60=%.2f", sw[10].tput, sw[60].tput))
	f.CheckRange("near line rate at 10 VMs", sw[10].tput, 8.0, 9.7)
	return f
}
