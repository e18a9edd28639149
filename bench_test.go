package sriov

// Micro-benchmarks of the simulator: ablation benchmarks for the design
// choices DESIGN.md calls out, the raw event rate of a line-rate guest,
// and the guest transmit path. Figure values are pinned by
// internal/runner's TestSuiteMatchesGoldens; end-to-end cost is measured
// by the benchmark/ module.
//
// Run with: go test -run '^$' -bench . -benchmem

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
		netstack.DynamicITR{},
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
