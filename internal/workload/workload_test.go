package workload

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/guest"
	"repro/internal/iommu"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

func TestSourceRateAccuracy(t *testing.T) {
	eng := sim.NewEngine(1)
	var pkts int64
	var bytes units.Size
	s := NewSource(eng, model.LineRateUDP, model.FrameSize, func(n int, b units.Size) {
		pkts += int64(n)
		bytes += b
	})
	s.Start()
	eng.RunUntil(units.Time(units.Second))
	s.Stop()
	got := units.RateOf(bytes, units.Second)
	if got.Mbps() < 955 || got.Mbps() > 959 {
		t.Fatalf("generated rate = %v, want ≈957 Mbps", got)
	}
	// Packet arithmetic: 957 Mbps at 1514 B ≈ 79 kpps.
	if pkts < 78000 || pkts > 80000 {
		t.Fatalf("pps = %d", pkts)
	}
}

func TestSourceSetRate(t *testing.T) {
	eng := sim.NewEngine(1)
	var bytes units.Size
	s := NewSource(eng, units.Gbps, 1514, func(n int, b units.Size) { bytes += b })
	s.Start()
	eng.RunUntil(units.Time(500 * units.Millisecond))
	half := bytes
	s.rate = 0
	eng.RunUntil(units.Time(units.Second))
	if bytes != half {
		t.Fatal("rate 0 should stop generation")
	}
	s.rate = units.Gbps
	eng.RunUntil(units.Time(1500 * units.Millisecond))
	if bytes <= half {
		t.Fatal("rate restore should resume generation")
	}
	s.Stop()
}

func TestSourceStartIdempotent(t *testing.T) {
	eng := sim.NewEngine(1)
	var pkts int64
	s := NewSource(eng, units.Gbps, 1514, func(n int, b units.Size) { pkts += int64(n) })
	s.Start()
	s.Start() // second start must not double-generate
	eng.RunUntil(units.Time(100 * units.Millisecond))
	s.Stop()
	s.Stop()
	want := model.PacketsPerSecond(units.Gbps, 1514) * 0.1
	if float64(pkts) < want*0.95 || float64(pkts) > want*1.05 {
		t.Fatalf("pkts = %d, want ≈%.0f", pkts, want)
	}
}

func TestSourceLowRateCarry(t *testing.T) {
	// 1 Mbps at 1514 B ≈ 82.6 pps: far less than one packet per tick; the
	// fractional carry must still deliver the right total.
	eng := sim.NewEngine(1)
	var pkts int64
	s := NewSource(eng, units.Mbps, 1514, func(n int, b units.Size) { pkts += int64(n) })
	s.Start()
	eng.RunUntil(units.Time(10 * units.Second))
	s.Stop()
	if pkts < 800 || pkts > 850 {
		t.Fatalf("low-rate pkts = %d, want ≈826", pkts)
	}
}

func TestTCPRateUsesPolicy(t *testing.T) {
	// The equilibrium core.StartTCP drives a Source at.
	if r := netstack.TCPSteadyState(netstack.FixedITR(2000)); r.Mbps() < 930 {
		t.Fatalf("2 kHz TCP rate = %v", r)
	}
	if r := netstack.TCPSteadyState(netstack.FixedITR(1000)); r.Mbps() > 900 {
		t.Fatalf("1 kHz TCP rate = %v, want degraded", r)
	}
}

func TestMessageSourceBackpressure(t *testing.T) {
	eng := sim.NewEngine(1)
	var sent int64
	backlog := units.Duration(0)
	m := NewMessageSource(eng, 4000, func(sz units.Size) units.Duration {
		sent++
		backlog += 500 * units.Microsecond // path slower than source
		return backlog
	})
	m.Start()
	eng.RunUntil(units.Time(10 * units.Millisecond))
	m.Stop()
	// With a growing backlog the source must throttle to ~1 message per
	// tick after the first burst rather than 8.
	if sent > 250 {
		t.Fatalf("backpressure ignored: %d messages", sent)
	}
	if sent == 0 {
		t.Fatal("nothing sent")
	}
}

func TestWindowMeasurement(t *testing.T) {
	eng := sim.NewEngine(1)
	meter := cpu.NewMeter()
	fabric := pcie.NewFabric()
	mmu := iommu.New(64)
	fabric.SetIOMMU(mmu)
	hv := vmm.NewFlavored(eng, meter, fabric, mmu, vmm.AllOptimizations, vmm.Xen)
	d := hv.CreateDomain("g", vmm.HVM, vmm.Kernel2628, nil)
	recv := guest.NewNetReceiver(hv, d)

	w := StartWindow(0, recv)
	// Deliver 1 Gbit over one simulated second.
	recv.OnInterrupt()
	recv.Burst = 1 << 30
	recv.DeliverBatch(100, 125_000_000)
	eng.RunUntil(units.Time(units.Second))
	res := w.Close(eng.Now())
	if res.Goodput != units.Gbps {
		t.Fatalf("goodput = %v", res.Goodput)
	}
	if res.Packets != 100 || res.Interrupts != 1 || res.SockDropped != 0 {
		t.Fatalf("result = %+v", res)
	}
}
