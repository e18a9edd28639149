package sriov

// The benchmark harness: one benchmark per paper table/figure, each
// regenerating the figure and reporting its headline metrics, plus
// ablation benchmarks for the design choices DESIGN.md calls out.
//
// Run with: go test -bench=. -benchmem
//
// Absolute numbers come from the calibrated simulation (see
// internal/model); the shape checks embedded in each figure are also
// enforced here, so a benchmark run doubles as a reproduction audit.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/workload"
)

// benchFigure runs one registered experiment per iteration, asserts its
// shape checks, and reports the requested series' headline values.
func benchFigure(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = RunExperiment(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !fig.AllChecksPass() {
		b.Fatalf("%s shape checks failed: %v", id, fig.FailedChecks())
	}
	for _, s := range fig.Series {
		if unit, ok := metrics[s.Name]; ok {
			b.ReportMetric(s.Last(), unit)
		}
	}
}

func BenchmarkFig06MaskAccel(b *testing.B) {
	benchFigure(b, "fig06", map[string]string{"dom0-unopt": "dom0-unopt-%", "dom0-opt": "dom0-opt-%"})
}

func BenchmarkFig07EOIAccel(b *testing.B) {
	benchFigure(b, "fig07", map[string]string{"total": "Mcycles/s"})
}

func BenchmarkFig08AICUDP(b *testing.B) {
	// Series' last point is the 1 kHz row of the policy sweep.
	benchFigure(b, "fig08", map[string]string{"guest+xen-cpu": "cpu-%@1kHz", "throughput": "Mbps@1kHz"})
}

func BenchmarkFig09AICTCP(b *testing.B) {
	benchFigure(b, "fig09", map[string]string{"throughput": "Mbps@1kHz"})
}

func BenchmarkFig10AICInterVM(b *testing.B) {
	benchFigure(b, "fig10", map[string]string{"rx-bw": "Gbps@1kHz"})
}

func BenchmarkFig12Optimizations(b *testing.B) {
	// Series' last point is the native baseline.
	benchFigure(b, "fig12", map[string]string{"total-cpu": "cpu-%@native", "throughput": "Gbps"})
}

func BenchmarkFig13InterVMSRIOV(b *testing.B) {
	benchFigure(b, "fig13", map[string]string{"throughput": "Gbps@4000B"})
}

func BenchmarkFig14InterVMPV(b *testing.B) {
	benchFigure(b, "fig14", map[string]string{"throughput": "Gbps@4000B"})
}

func BenchmarkFig15ScalabilityHVM(b *testing.B) {
	benchFigure(b, "fig15", map[string]string{"total-cpu": "cpu-%@60VM", "throughput": "Gbps"})
}

func BenchmarkFig16ScalabilityPVM(b *testing.B) {
	benchFigure(b, "fig16", map[string]string{"total-cpu": "cpu-%@60VM", "throughput": "Gbps"})
}

func BenchmarkFig17PVScalabilityHVM(b *testing.B) {
	benchFigure(b, "fig17", map[string]string{"dom0": "dom0-%@60VM", "throughput": "Gbps@60VM"})
}

func BenchmarkFig18PVScalabilityPVM(b *testing.B) {
	benchFigure(b, "fig18", map[string]string{"dom0": "dom0-%@60VM", "throughput": "Gbps@60VM"})
}

func BenchmarkFig19VMDqScalability(b *testing.B) {
	benchFigure(b, "fig19", map[string]string{"throughput": "Gbps@60VM"})
}

func BenchmarkFig20MigrationPV(b *testing.B) {
	benchFigure(b, "fig20", nil)
}

func BenchmarkFig21MigrationDNIS(b *testing.B) {
	benchFigure(b, "fig21", nil)
}

func BenchmarkFig26NFVPacketSweep(b *testing.B) {
	benchFigure(b, "fig26", map[string]string{"vhost": "Mbps@1514B", "swpass-loss": "%@1514B"})
}

func BenchmarkFig27NFVServiceChains(b *testing.B) {
	benchFigure(b, "fig27", map[string]string{"chain3-p99": "µs@swpass"})
}

// ---- Ablation benchmarks (DESIGN.md "design choices") ----

// BenchmarkAblationEOIStrategy compares the three EOI emulation strategies
// of §5.2 at a fixed interrupt load: full fetch-decode-emulate, the
// Exit-qualification fast path, and the fast path with the correctness
// instruction check (+1.8 K cycles).
func BenchmarkAblationEOIStrategy(b *testing.B) {
	cases := []struct {
		name string
		opts vmm.Optimizations
	}{
		{"emulate", vmm.Optimizations{MaskAccel: true}},
		{"fastpath", vmm.Optimizations{MaskAccel: true, EOIAccel: true}},
		{"fastpath-checked", vmm.Optimizations{MaskAccel: true, EOIAccel: true, EOICheckInstruction: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var xen float64
			for i := 0; i < b.N; i++ {
				tb := core.NewTestbed(core.Config{Ports: 1, Opts: c.opts})
				g, err := tb.AddSRIOVGuest("g", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(8000))
				if err != nil {
					b.Fatal(err)
				}
				tb.StartUDP(g, model.LineRateUDP)
				u, _ := tb.Measure(Warmup, Window)
				tb.StopAll()
				xen = u.Xen
			}
			b.ReportMetric(xen, "xen-%")
		})
	}
}

// BenchmarkAblationNetbackThreads sweeps the §6.5 backend thread count at a
// 10-VM aggregate 10 GbE load.
func BenchmarkAblationNetbackThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "1-thread", 2: "2-threads", 4: "4-threads", 8: "8-threads"}[threads], func(b *testing.B) {
			var goodput, dom0 float64
			for i := 0; i < b.N; i++ {
				tb := core.NewTestbed(core.Config{Ports: 10, Opts: vmm.AllOptimizations, NetbackThreads: threads})
				for v := 0; v < 10; v++ {
					g, err := tb.AddPVGuest("g", vmm.PVM, vmm.Kernel2628, v)
					if err != nil {
						b.Fatal(err)
					}
					tb.StartUDP(g, model.LineRateUDP)
				}
				u, res := tb.Measure(Warmup, Window)
				tb.StopAll()
				goodput = core.AggregateGoodput(res).Gbps()
				dom0 = u.Dom0
			}
			b.ReportMetric(goodput, "Gbps")
			b.ReportMetric(dom0, "dom0-%")
		})
	}
}

// BenchmarkAblationCoalescing sweeps the coalescing policy at line rate for
// a single guest (the Fig. 8 axis, isolated from the figure harness).
func BenchmarkAblationCoalescing(b *testing.B) {
	policies := []netstack.ITRPolicy{
		netstack.FixedITR(20000),
		netstack.FixedITR(8000),
		netstack.FixedITR(2000),
		netstack.DefaultDynamicITR(),
		netstack.DefaultAIC(),
	}
	for _, p := range policies {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var cpu float64
			for i := 0; i < b.N; i++ {
				tb := core.NewTestbed(core.Config{Ports: 1, Opts: vmm.AllOptimizations})
				g, err := tb.AddSRIOVGuest("g", vmm.HVM, vmm.Kernel2628, 0, 0, p)
				if err != nil {
					b.Fatal(err)
				}
				tb.StartUDP(g, model.LineRateUDP)
				u, _ := tb.Measure(1500*units.Millisecond, Window)
				tb.StopAll()
				cpu = u.Total
			}
			b.ReportMetric(cpu, "cpu-%")
		})
	}
}

// BenchmarkAblationInterruptFlavour isolates the virtual-LAPIC vs
// event-channel cost (§6.4) at identical load.
func BenchmarkAblationInterruptFlavour(b *testing.B) {
	for _, typ := range []vmm.DomainType{vmm.HVM, vmm.PVM} {
		b.Run(typ.String(), func(b *testing.B) {
			var xen float64
			for i := 0; i < b.N; i++ {
				tb := core.NewTestbed(core.Config{Ports: 1, Opts: vmm.AllOptimizations})
				g, err := tb.AddSRIOVGuest("g", typ, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
				if err != nil {
					b.Fatal(err)
				}
				tb.StartUDP(g, model.LineRateUDP)
				u, _ := tb.Measure(Warmup, Window)
				tb.StopAll()
				xen = u.Xen
			}
			b.ReportMetric(xen, "xen-%")
		})
	}
}

// BenchmarkRawSimulationThroughput measures the simulator itself: events
// per wall-clock second for a line-rate single-guest run (a regression
// guard for the engine, not a paper figure). The event queue alone is
// measured by internal/sim's BenchmarkAblationScheduler.
func BenchmarkRawSimulationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(core.Config{Ports: 1, Opts: vmm.AllOptimizations})
		g, err := tb.AddSRIOVGuest("g", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(8000))
		if err != nil {
			b.Fatal(err)
		}
		tb.StartUDP(g, model.LineRateUDP)
		tb.Eng.RunUntil(units.Time(2 * units.Second))
		tb.StopAll()
		b.ReportMetric(float64(tb.Eng.Processed()), "events")
	}
}

// BenchmarkSenderPath measures the guest transmit path in isolation.
func BenchmarkSenderPath(b *testing.B) {
	tb := core.NewTestbed(core.Config{Ports: 1, Opts: vmm.AllOptimizations})
	g, err := tb.AddSRIOVGuest("g", vmm.HVM, vmm.Kernel2628, 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	tx := guest.NewNetSender(tb.HV, g.Dom)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.SendMessage(4000, 1500)
	}
	_ = workload.Result{}
}

// BenchmarkExtension10GbE runs the beyond-the-paper single-port 10 GbE
// experiment (see internal/experiments/extension.go).
func BenchmarkExtension10GbE(b *testing.B) {
	benchFigure(b, "ext10g", map[string]string{"total-cpu": "cpu-%@7VM", "throughput": "Gbps"})
}

// BenchmarkExtensionRequestResponse runs the TCP_RR-style latency extension
// (see internal/experiments/extension.go).
func BenchmarkExtensionRequestResponse(b *testing.B) {
	benchFigure(b, "extrr", map[string]string{"transactions": "txn/s@1kHz", "round-trip": "µs@1kHz"})
}
