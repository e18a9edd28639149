package vmm

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

type bed struct {
	eng     *sim.Engine
	meter   *cpu.Meter
	fabric  *pcie.Fabric
	mmu     *iommu.IOMMU
	hv      *Hypervisor
	machine *mem.Machine
}

func newBed(opts Optimizations) *bed {
	eng := sim.NewEngine(1)
	meter := cpu.NewMeter()
	fabric := pcie.NewFabric()
	mmu := iommu.New(256)
	fabric.SetIOMMU(mmu)
	return &bed{
		eng: eng, meter: meter, fabric: fabric, mmu: mmu,
		hv:      NewFlavored(eng, meter, fabric, mmu, opts, Xen),
		machine: mem.NewMachine(model.ServerMemory),
	}
}

// cycles reads the named domain's ledger.
func (b *bed) cycles(domain string) units.Cycles {
	return b.meter.DomainCycles(b.meter.Ledger(domain))
}

func (b *bed) guest(t *testing.T, name string, typ DomainType, k KernelConfig) *Domain {
	t.Helper()
	dm, err := mem.NewDomainMemory(b.machine, 64*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	return b.hv.CreateDomain(name, typ, k, dm)
}

func TestDomainCreation(t *testing.T) {
	b := newBed(Optimizations{})
	if b.hv.Dom0() == nil || b.hv.Dom0().Type != Dom0 {
		t.Fatal("dom0 missing")
	}
	g := b.guest(t, "guest-1", HVM, KernelRHEL5)
	if g.lapic == nil {
		t.Fatal("HVM guest needs a virtual LAPIC")
	}
	p := b.guest(t, "guest-2", PVM, Kernel2628)
	if p.events == nil {
		t.Fatal("PVM guest needs event channels")
	}
	if len(b.hv.Domains()) != 3 {
		t.Fatalf("domains = %d", len(b.hv.Domains()))
	}
}

func TestCreateDom0Panics(t *testing.T) {
	b := newBed(Optimizations{})
	defer func() {
		if recover() == nil {
			t.Error("second dom0 should panic")
		}
	}()
	b.hv.CreateDomain("dom0b", Dom0, KernelRHEL5, nil)
}

func TestHVMInterruptDelivery(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.guest(t, "guest-1", HVM, Kernel2628)
	ran := 0
	bind, err := b.hv.BindGuestMSIFromRID(g, "vf0", 0, func() { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	bind.PhysicalMSI()
	if ran != 1 {
		t.Fatal("ISR did not run")
	}
	// Xen paid the external-interrupt exit.
	if b.hv.Exits()[ExitExtInt].Count != 1 {
		t.Fatal("ext-int exit not recorded")
	}
	if b.cycles("xen") != model.ExtIntExitCycles {
		t.Fatalf("xen cycles = %d", b.cycles("xen"))
	}
	// The vector is in service until EOI: a second MSI waits behind it,
	// and the EOI that retires the first dispatches the second.
	bind.PhysicalMSI()
	if ran != 1 {
		t.Fatal("vector should be in service")
	}
	b.hv.GuestEOI(g)
	if ran != 2 {
		t.Fatalf("EOI should clear service and dispatch the waiting MSI (ran %d)", ran)
	}
}

func TestPVMInterruptDelivery(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.guest(t, "guest-1", PVM, Kernel2628)
	ran := 0
	bind, err := b.hv.BindGuestMSIFromRID(g, "vf0", 0, func() { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	bind.PhysicalMSI()
	if ran != 1 {
		t.Fatal("upcall did not run")
	}
	// PVM pays ext-int exit + evtchn send + guest upcall; no APIC exits.
	wantXen := model.ExtIntExitCycles + model.EvtchnSendCycles
	if b.cycles("xen") != wantXen {
		t.Fatalf("xen cycles = %d, want %d", b.cycles("xen"), wantXen)
	}
	if b.cycles("guest-1") != model.EvtchnGuestCycles {
		t.Fatalf("guest cycles = %d", b.cycles("guest-1"))
	}
	if b.hv.Exits()[ExitAPICEOI] != (ExitRecord{}) {
		t.Fatal("PVM should have no APIC exits")
	}
}

func TestNativeInterruptDelivery(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.hv.CreateDomain("native", Native, Kernel2628, nil)
	ran := 0
	bind, _ := b.hv.BindGuestMSIFromRID(g, "eth0", 0, func() { ran++ })
	bind.PhysicalMSI()
	if ran != 1 {
		t.Fatal("native ISR did not run")
	}
	if b.cycles("xen") != 0 {
		t.Fatal("native delivery must not charge xen")
	}
}

func TestPausedDomainDefersInterrupts(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.guest(t, "guest-1", HVM, Kernel2628)
	ran := 0
	bind, _ := b.hv.BindGuestMSIFromRID(g, "vf0", 0, func() { ran++ })
	b.hv.SetPaused(g, true)
	bind.PhysicalMSI()
	if ran != 0 {
		t.Fatal("paused domain ran an ISR")
	}
	if b.hv.Counters.Get("msi_while_paused") != 1 {
		t.Fatal("deferred interrupt not counted")
	}
}

func TestUnbindStopsDelivery(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.guest(t, "guest-1", HVM, Kernel2628)
	ran := 0
	bind, _ := b.hv.BindGuestMSIFromRID(g, "vf0", 0, func() { ran++ })
	bind.Unbind()
	bind.PhysicalMSI()
	if ran != 0 {
		t.Fatal("unbound ISR ran")
	}
}

func TestMaskWriteCostRouting(t *testing.T) {
	// Unoptimized: dom0 pays the device-model cost. Optimized: xen pays a
	// small cost and dom0 nothing.
	b := newBed(Optimizations{})
	g := b.guest(t, "guest-1", HVM, KernelRHEL5)
	before := b.cycles("dom0")
	b.hv.GuestMSIMaskWrite(g)
	if got := b.cycles("dom0") - before; got != model.MaskViaDeviceModelDom0Cycles {
		t.Fatalf("dom0 device-model cycles = %d", got)
	}

	b2 := newBed(Optimizations{MaskAccel: true})
	g2 := b2.guest(t, "guest-1", HVM, KernelRHEL5)
	b2.hv.GuestMSIMaskWrite(g2)
	if got := b2.cycles("dom0"); got != 0 {
		t.Fatalf("accelerated mask should not touch dom0, got %d", got)
	}
	if got := b2.cycles("xen"); got != model.MaskInHypervisorCycles {
		t.Fatalf("xen cycles = %d", got)
	}
	// PVM guests never pay.
	g3 := b2.guest(t, "guest-2", PVM, KernelRHEL5)
	b2.hv.GuestMSIMaskWrite(g3)
	if b2.cycles("guest-2") != 0 {
		t.Fatal("PVM mask write should be free")
	}
}

func TestEOICostVariants(t *testing.T) {
	cases := []struct {
		opts Optimizations
		want units.Cycles
	}{
		{Optimizations{}, model.EOIEmulateCycles},
		{Optimizations{EOIAccel: true}, model.EOIFastCycles},
		{Optimizations{EOIAccel: true, EOICheckInstruction: true}, model.EOIFastCycles + model.EOICheckCycles},
	}
	for _, c := range cases {
		b := newBed(c.opts)
		g := b.guest(t, "guest-1", HVM, Kernel2628)
		b.hv.GuestEOI(g)
		if got := b.cycles("xen"); got != c.want {
			t.Fatalf("opts %+v: xen cycles = %d, want %d", c.opts, got, c.want)
		}
		if b.hv.Exits()[ExitAPICEOI].Count != 1 {
			t.Fatal("EOI exit not recorded")
		}
	}
}

func TestEOIChainsNextInterrupt(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.guest(t, "guest-1", HVM, Kernel2628)
	var order []string
	bindA, _ := b.hv.BindGuestMSIFromRID(g, "a", 0, func() { order = append(order, "a") })
	bindB, _ := b.hv.BindGuestMSIFromRID(g, "b", 0, func() { order = append(order, "b") })
	// Deliver A; while in service, B arrives. A and B get consecutive
	// vectors, so they share a 16-vector priority class: B pends until A's
	// EOI rather than preempting.
	bindA.PhysicalMSI()
	bindB.PhysicalMSI()
	if len(order) != 1 || order[0] != "a" {
		t.Fatalf("order = %v (same-class B must pend, not preempt)", order)
	}
	// EOI clears A and chains the pending B into service.
	b.hv.GuestEOI(g)
	if len(order) != 2 || order[1] != "b" {
		t.Fatalf("order = %v (EOI should deliver pending B)", order)
	}
	// EOI clears B; inject A again with nothing in service.
	b.hv.GuestEOI(g)
	bindA.PhysicalMSI()
	if len(order) != 3 || order[2] != "a" {
		t.Fatalf("order = %v", order)
	}
}

func TestPollutionFactor(t *testing.T) {
	// The same guest charge is more expensive while the unoptimized mask
	// path is active.
	b := newBed(Optimizations{})
	g := b.guest(t, "guest-1", HVM, KernelRHEL5) // masks at runtime, no accel
	b.hv.ChargeGuest(g, 10000)
	dirty := b.cycles("guest-1")

	b2 := newBed(Optimizations{MaskAccel: true})
	g2 := b2.guest(t, "guest-1", HVM, KernelRHEL5)
	b2.hv.ChargeGuest(g2, 10000)
	clean := b2.cycles("guest-1")
	if dirty <= clean {
		t.Fatalf("pollution factor missing: dirty=%d clean=%d", dirty, clean)
	}
}

func TestAssignDevice(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.guest(t, "guest-1", HVM, Kernel2628)
	fn := pcie.NewFunction("vf", pcie.MakeRID(1, 0, 0), 0x8086, 0x10ca)
	if err := b.hv.AssignDevice(g, fn); err != nil {
		t.Fatal(err)
	}
	if !b.mmu.Attached(uint16(fn.RID())) {
		t.Fatal("IOMMU context missing after assign")
	}
	if len(g.Assigned()) != 1 {
		t.Fatal("assignment not recorded")
	}
	// The DMA check passes for in-domain addresses.
	check := b.hv.DMACheckFor(g, fn)
	for i := 0; i < 100; i++ {
		if err := check(1514); err != nil {
			t.Fatalf("dma check %d: %v", i, err)
		}
	}
	b.hv.UnassignDevice(g, fn)
	if b.mmu.Attached(uint16(fn.RID())) {
		t.Fatal("IOMMU context should be detached")
	}
	if err := check(1514); err == nil {
		t.Fatal("DMA after unassign should fault")
	}
}

func TestAssignWithoutMemoryFails(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.hv.CreateDomain("native", Native, Kernel2628, nil)
	fn := pcie.NewFunction("vf", pcie.MakeRID(1, 0, 0), 0x8086, 0x10ca)
	if err := b.hv.AssignDevice(g, fn); err == nil {
		t.Fatal("assign without memory should fail")
	}
}

func TestHotplugEvents(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.guest(t, "guest-1", HVM, Kernel2628)
	var events []HotplugEvent
	g.HotplugHandler = func(ev HotplugEvent) { events = append(events, ev) }
	doneRemove, doneAdd := false, false
	b.hv.HotplugRemove(g, nil, func() { doneRemove = true })
	b.eng.RunUntil(sim.Forever)
	b.hv.HotplugAdd(g, func() { doneAdd = true })
	b.eng.RunUntil(sim.Forever)
	if len(events) != 2 || !events[0].Remove || events[1].Remove {
		t.Fatalf("events = %v", events)
	}
	if !doneRemove || !doneAdd {
		t.Fatal("done callbacks not run")
	}
}

func TestTimerBaselineFlavours(t *testing.T) {
	b := newBed(Optimizations{})
	hvm := b.guest(t, "hvm", HVM, Kernel2628)
	pvm := b.guest(t, "pvm", PVM, Kernel2628)
	b.meter.ResetWindow(0)
	b.hv.ChargeTimerBaseline(hvm, units.Second)
	b.hv.ChargeTimerBaseline(pvm, units.Second)
	now := units.Time(units.Second)
	hvmCost := b.meter.Utilization(b.meter.Ledger("hvm"), now)
	pvmCost := b.meter.Utilization(b.meter.Ledger("pvm"), now)
	if hvmCost <= 0 || pvmCost <= 0 {
		t.Fatal("timer baseline should charge both")
	}
	// HVM timer ticks also burn xen cycles on APIC emulation; the xen side
	// must dominate the PVM equivalent.
	if b.cycles("xen") <= 0 {
		t.Fatal("xen timer cost missing")
	}
}

func TestDom0Baseline(t *testing.T) {
	b := newBed(Optimizations{})
	b.guest(t, "g1", HVM, Kernel2628)
	b.guest(t, "g2", PVM, Kernel2628)
	b.meter.ResetWindow(0)
	b.hv.ChargeDom0Baseline(units.Second)
	util := b.meter.Utilization(b.meter.Ledger("dom0"), units.Time(units.Second))
	if util < model.Dom0BaselinePct || util > model.Dom0BaselinePct+1 {
		t.Fatalf("dom0 baseline = %v", util)
	}
}

func TestGuestConfigAccessCosts(t *testing.T) {
	b := newBed(Optimizations{})
	hvm := b.guest(t, "hvm", HVM, Kernel2628)
	pvm := b.guest(t, "pvm", PVM, Kernel2628)
	before := b.cycles("dom0")
	b.hv.GuestConfigAccess(hvm, 10)
	hvmDom0 := b.cycles("dom0") - before
	before = b.cycles("dom0")
	b.hv.GuestConfigAccess(pvm, 10)
	pvmDom0 := b.cycles("dom0") - before
	if hvmDom0 <= pvmDom0 {
		t.Fatal("device-model path should cost more than pciback")
	}
}

func TestExitTraceReset(t *testing.T) {
	b := newBed(Optimizations{})
	g := b.guest(t, "g", HVM, Kernel2628)
	b.hv.GuestEOI(g)
	if b.hv.Exits()[ExitAPICEOI].Cycles == 0 {
		t.Fatal("exit cycles missing")
	}
	b.hv.ResetExitTrace()
	if b.hv.Exits() != (ExitTrace{}) {
		t.Fatal("reset did not clear")
	}
}

func TestComplexEOIWriterRisk(t *testing.T) {
	weird := KernelConfig{ComplexEOIWriter: true} // a movs/stos EOI writer

	// Fast path without the instruction check: mis-emulation corrupts the
	// guest (contained within it).
	b := newBed(Optimizations{EOIAccel: true})
	g := b.guest(t, "g", HVM, weird)
	b.hv.GuestEOI(g)
	if b.hv.Counters.Get("eoi_misemulation") != 1 {
		t.Fatal("unchecked fast path should mis-emulate a complex-EOI guest")
	}

	// With the check: correct, at check+full-emulation cost.
	b2 := newBed(Optimizations{EOIAccel: true, EOICheckInstruction: true})
	g2 := b2.guest(t, "g", HVM, weird)
	b2.hv.GuestEOI(g2)
	if b2.hv.Counters.Get("eoi_misemulation") != 0 {
		t.Fatal("checked fast path must stay correct")
	}
	want := model.EOICheckCycles + model.EOIEmulateCycles
	if got := b2.cycles("xen"); got != want {
		t.Fatalf("checked complex EOI cost = %d, want %d", got, want)
	}

	// Full emulation (no accel): always correct.
	b3 := newBed(Optimizations{})
	g3 := b3.guest(t, "g", HVM, weird)
	b3.hv.GuestEOI(g3)
	if b3.hv.Counters.Get("eoi_misemulation") != 0 {
		t.Fatal("full emulation must stay correct")
	}

	// A normal kernel is never corrupted by the unchecked fast path — the
	// paper's argument for shipping it.
	b4 := newBed(Optimizations{EOIAccel: true})
	g4 := b4.guest(t, "g", HVM, Kernel2628)
	b4.hv.GuestEOI(g4)
	if b4.hv.Counters.Get("eoi_misemulation") != 0 {
		t.Fatal("simple EOI writer must be safe")
	}
}

func TestControlPlaneTracing(t *testing.T) {
	b := newBed(AllOptimizations)
	b.hv.Tracer = obs.NewTrace(64, 0)
	g := b.guest(t, "guest-1", HVM, Kernel2628)
	fn := pcie.NewFunction("vf", pcie.MakeRID(1, 0, 0), 0x8086, 0x10ca)
	if err := b.hv.AssignDevice(g, fn); err != nil {
		t.Fatal(err)
	}
	bind, _ := b.hv.BindGuestMSIFromRID(g, "vf0", 0, func() {})
	_ = bind
	b.hv.SetPaused(g, true)
	b.hv.UnassignDevice(g, fn)
	ev := b.hv.Tracer.Events()
	if len(ev) < 4 {
		t.Fatalf("traced events = %d: %v", len(ev), ev)
	}
	count := func(substr string) int {
		n := 0
		for _, e := range ev {
			if strings.Contains(e.String(), substr) {
				n++
			}
		}
		return n
	}
	if count("assign") < 2 {
		t.Fatal("assign/unassign not traced")
	}
	if count("paused=true") != 1 {
		t.Fatal("pause not traced")
	}
}
