package drivers

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/guest"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// rig is a one-port testbed for driver tests.
type rig struct {
	eng     *sim.Engine
	meter   *cpu.Meter
	fabric  *pcie.Fabric
	mmu     *iommu.IOMMU
	hv      *vmm.Hypervisor
	machine *mem.Machine
	port    *nic.Port
	pf      *PFDriver
}

func newRig(t *testing.T, opts vmm.Optimizations) *rig {
	t.Helper()
	eng := sim.NewEngine(7)
	meter := cpu.NewMeter()
	fabric := pcie.NewFabric()
	mmu := iommu.New(512)
	fabric.SetIOMMU(mmu)
	hv := vmm.NewFlavored(eng, meter, fabric, mmu, opts, vmm.Xen)
	port := nic.New(eng, nic.Config{Name: "eth0", NumVFs: 7})
	rp := fabric.AddRootPort("rp0")
	fabric.Attach(rp, port.Device())
	fabric.Enumerate()
	r := &rig{
		eng: eng, meter: meter, fabric: fabric, mmu: mmu, hv: hv,
		machine: mem.NewMachine(model.ServerMemory),
		port:    port,
	}
	r.pf = NewPFDriver(hv, port)
	if err := r.pf.EnableVFs(7); err != nil {
		t.Fatal(err)
	}
	return r
}

// cycles reads the named domain's ledger.
func (r *rig) cycles(domain string) units.Cycles {
	return r.meter.DomainCycles(r.meter.Ledger(domain))
}

func (r *rig) addGuest(t *testing.T, name string, typ vmm.DomainType, k vmm.KernelConfig) (*vmm.Domain, *guest.NetReceiver) {
	t.Helper()
	dm, err := mem.NewDomainMemory(r.machine, 64*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	d := r.hv.CreateDomain(name, typ, k, dm)
	return d, guest.NewNetReceiver(r.hv, d)
}

func (r *rig) attachVF(t *testing.T, d *vmm.Domain, vf int, mac nic.MAC, recv *guest.NetReceiver, policy netstack.ITRPolicy) *VFDriver {
	t.Helper()
	fn := r.port.VFQueue(vf).Function()
	if _, err := r.fabric.HotAdd(fn.RID()); err != nil {
		t.Fatal(err)
	}
	if err := r.hv.AssignDevice(d, fn); err != nil {
		t.Fatal(err)
	}
	drv, err := AttachVFDriver(r.hv, d, r.port, vf, recv, VFConfig{MAC: mac, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return drv
}

func TestPFDriverEnableVFs(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	for i := 0; i < 7; i++ {
		if !r.port.VFQueue(i).Function().Config().Present() {
			t.Fatalf("VF %d not enabled", i)
		}
	}
	if err := r.pf.EnableVFs(99); err == nil {
		t.Fatal("over-subscription should fail")
	}
}

func TestVFAttachPreconditions(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	// Not assigned yet → attach must fail.
	if _, err := AttachVFDriver(r.hv, d, r.port, 0, recv, VFConfig{MAC: 0xaa}); err == nil {
		t.Fatal("attach before assignment should fail")
	}
	if _, err := AttachVFDriver(r.hv, d, r.port, 99, recv, VFConfig{MAC: 0xaa}); err == nil {
		t.Fatal("bad VF index should fail")
	}
}

func TestVFEndToEndReceive(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	r.port.Obs = obs.NewRegistry()
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	r.meter.ResetWindow(r.eng.Now())
	dom0Before := r.cycles("dom0")
	// 10 ms of 957 Mbps: ~790 packets in batches of 10 every ~126 µs.
	for i := 0; i < 79; i++ {
		dly := units.Duration(i) * 126 * units.Microsecond
		r.eng.After(dly, "gen", func() {
			r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), Count: 10, Bytes: 15140})
		})
	}
	end := r.eng.RunUntil(units.Time(20 * units.Millisecond))
	if recv.Stats.AppPackets != 790 {
		t.Fatalf("app packets = %d, want 790", recv.Stats.AppPackets)
	}
	if recv.Stats.SockDropped != 0 {
		t.Fatalf("unexpected socket drops: %d", recv.Stats.SockDropped)
	}
	// ~2 kHz over 10 ms of traffic → about 20 interrupts (plus edge).
	if recv.Stats.Interrupts < 15 || recv.Stats.Interrupts > 30 {
		t.Fatalf("interrupts = %d, want ≈20", recv.Stats.Interrupts)
	}
	// Guest and xen both consumed cycles; dom0 essentially idle (no mask
	// traffic on 2.6.28 + accel).
	if r.meter.Utilization(r.meter.Ledger("g1"), end) <= 0 {
		t.Fatal("guest cycles missing")
	}
	if r.cycles("xen") <= 0 {
		t.Fatal("xen cycles missing")
	}
	if got := r.cycles("dom0") - dom0Before; got > 300000 {
		t.Fatalf("dom0 busy on optimized path: %d", got)
	}
	if r.port.Obs.Get("nic."+drv.Queue().Name()+".intr_fired") != recv.Stats.Interrupts {
		t.Fatal("queue/receiver interrupt mismatch")
	}
	// The MAC request was acked by the PF driver.
	if !drv.MACConfirmed {
		t.Fatal("MAC not confirmed over mailbox")
	}
}

func TestVFMaskTrafficByKernel(t *testing.T) {
	run := func(k vmm.KernelConfig, opts vmm.Optimizations) (maskWrites int64, dom0 units.Cycles) {
		r := newRig(t, opts)
		d, recv := r.addGuest(t, "g1", vmm.HVM, k)
		r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(8000))
		before := r.cycles("dom0")
		for i := 0; i < 40; i++ {
			dly := units.Duration(i) * 250 * units.Microsecond
			r.eng.After(dly, "gen", func() {
				r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), Count: 10, Bytes: 15140})
			})
		}
		r.eng.RunUntil(units.Time(15 * units.Millisecond))
		return r.hv.Counters.Get("msi_mask_writes"), r.cycles("dom0") - before
	}
	// 2.6.18 unoptimized: two mask writes per interrupt, dom0 pays.
	writes, dom0 := run(vmm.KernelRHEL5, vmm.Optimizations{})
	if writes == 0 {
		t.Fatal("2.6.18 should write mask registers")
	}
	if dom0 == 0 {
		t.Fatal("unoptimized mask path should charge dom0")
	}
	// 2.6.18 + MaskAccel: writes still happen, dom0 untouched by them.
	writes2, dom0Opt := run(vmm.KernelRHEL5, vmm.Optimizations{MaskAccel: true, EOIAccel: true})
	if writes2 == 0 {
		t.Fatal("mask writes should still occur with accel")
	}
	if dom0Opt >= dom0/10 {
		t.Fatalf("MaskAccel should all but eliminate dom0 cost: %d vs %d", dom0Opt, dom0)
	}
	// 2.6.28: no runtime mask writes at all.
	writes3, _ := run(vmm.Kernel2628, vmm.Optimizations{})
	if writes3 != 0 {
		t.Fatalf("2.6.28 wrote mask registers: %d", writes3)
	}
}

func TestAICAdjustsITR(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	r.port.Obs = obs.NewRegistry()
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.DefaultAIC())
	lifHz := float64(model.AICMinHz)
	// Initialized assuming line rate: IF = pps·r/bufs ≈ 1480 Hz.
	// obsITR mirrors the EITR value (µs) the driver last wrote.
	itrHz := func() float64 { return 1e6 / drv.obsITR.Value() }
	initHz := itrHz()
	if initHz < 1400 || initHz > 1560 {
		t.Fatalf("initial ITR = %.0f Hz, want ≈1480", initHz)
	}
	// Offer ~957 Mbps for 2.5 s; after the 1 s samples the ITR should move
	// toward pps·r/bufs ≈ 1480 Hz.
	tick := sim.NewTicker(r.eng, 500*units.Microsecond, "gen", func(units.Time) {
		r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), Count: 40, Bytes: 40 * 1514})
	})
	r.eng.RunUntil(units.Time(2500 * units.Millisecond))
	tick.Stop()
	gotHz := itrHz()
	if gotHz < 1300 || gotHz > 1700 {
		t.Fatalf("AIC ITR after load = %.0f Hz, want ≈1480", gotHz)
	}
	// Load stops → next sample floors back to lif.
	r.eng.RunUntil(units.Time(4 * units.Second))
	gotHz = itrHz()
	if gotHz < lifHz-1 || gotHz > lifHz+1 {
		t.Fatalf("idle AIC ITR = %.0f Hz, want lif", gotHz)
	}
}

func TestVFDetachStopsTraffic(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	drv.Detach()
	drv.Detach() // idempotent
	r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), Count: 10, Bytes: 15140})
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	if recv.Stats.AppPackets != 0 {
		t.Fatal("detached driver received traffic")
	}
	if drv.Attached() {
		t.Fatal("driver still attached")
	}
}

func TestVFTransmitInterVM(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d1, recv1 := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	d2, recv2 := r.addGuest(t, "g2", vmm.HVM, vmm.Kernel2628)
	drv1 := r.attachVF(t, d1, 0, nic.MAC(0xa1), recv1, netstack.FixedITR(8000))
	r.attachVF(t, d2, 1, nic.MAC(0xa2), recv2, netstack.FixedITR(8000))
	r.eng.RunUntil(units.Time(10 * units.Millisecond)) // let mailbox settle
	sender := guest.NewNetSender(r.hv, d1)
	for i := 0; i < 100; i++ {
		dly := units.Duration(i) * 100 * units.Microsecond
		r.eng.After(dly, "tx", func() {
			drv1.Transmit(sender, nic.MAC(0xa2), 4000, 1500)
		})
	}
	r.eng.RunUntil(units.Time(2 * units.Second))
	if recv2.Stats.AppPackets != 300 {
		t.Fatalf("receiver packets = %d, want 300", recv2.Stats.AppPackets)
	}
	if r.cycles("g1") == 0 || r.cycles("g2") == 0 {
		t.Fatal("both sides should consume CPU")
	}
}

func TestPFDriverPolicesDuplicateMAC(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d1, recv1 := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	d2, recv2 := r.addGuest(t, "g2", vmm.HVM, vmm.Kernel2628)
	r.attachVF(t, d1, 0, nic.MAC(0xaa), recv1, nil)
	drv2 := r.attachVF(t, d2, 1, nic.MAC(0xaa), recv2, nil) // duplicate MAC
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	if drv2.MACConfirmed {
		t.Fatal("duplicate MAC should be nacked")
	}
	if r.pf.Nacked != 1 {
		t.Fatalf("nacked = %d", r.pf.Nacked)
	}
}

func TestPFDriverInspectHook(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	r.pf.InspectRequest = func(nic.Message) bool { return false }
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, nil)
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	if drv.MACConfirmed {
		t.Fatal("inspection hook should have nacked")
	}
}

func TestPFShutdownVF(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	r.attachVF(t, d, 0, nic.MAC(0xaa), recv, nil)
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	notices := vfNotices(r.port.Mailbox())
	r.pf.ShutdownVF(0)
	r.eng.RunUntil(units.Time(20 * units.Millisecond))
	if n := *notices; len(n) != 1 || n[0] != (nic.Message{Kind: nic.MsgDriverRemove, VF: 0}) {
		t.Fatalf("PF→VF messages %v, want the driver-remove notice", n)
	}
	r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), Count: 5, Bytes: 7570})
	r.eng.RunUntil(units.Time(30 * units.Millisecond))
	if recv.Stats.AppPackets != 0 {
		t.Fatal("shutdown VF still receives")
	}
}

func TestNetbackPVMEndToEnd(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.PVM, vmm.Kernel2628)
	nb := NewNetback(r.hv, 4)
	nb.AttachWire(r.port.PFQueue())
	if _, err := nb.CreateVif(d, nic.MAC(0xbb), recv); err != nil {
		t.Fatal(err)
	}
	r.pf.SetDom0MAC(nic.MAC(0xbb))
	r.meter.ResetWindow(0)
	for i := 0; i < 20; i++ {
		dly := units.Duration(i) * 500 * units.Microsecond
		r.eng.After(dly, "gen", func() {
			r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xbb), Count: 32, Bytes: 32 * 1514})
		})
	}
	end := r.eng.RunUntil(units.Time(100 * units.Millisecond))
	if recv.Stats.AppPackets != 640 {
		t.Fatalf("app packets = %d, want 640", recv.Stats.AppPackets)
	}
	if nb.Delivered != 640 {
		t.Fatalf("netback delivered = %d", nb.Delivered)
	}
	// dom0 pays the copy: netback category busy.
	dom0 := r.meter.Utilization(r.meter.Ledger("dom0"), end)
	if dom0 <= 0 {
		t.Fatal("dom0 should pay for PV copies")
	}
	// No APIC exits for a PVM guest.
	if r.hv.Exits()[vmm.ExitAPICEOI] != (vmm.ExitRecord{}) {
		t.Fatal("PVM path should not produce APIC exits")
	}
}

func TestNetbackHVMPaysConversion(t *testing.T) {
	// The same batch through netback to a PV-on-HVM guest and to a PVM
	// guest: on top of the same copy, the HVM guest's dom0 pays the
	// event-to-interrupt conversion per kick, and xen the emulated LAPIC
	// interrupt (exit plus EOI) among its other work.
	run := func(typ vmm.DomainType) (dom0, xen units.Cycles, kicks int64, eoi units.Cycles) {
		r := newRig(t, vmm.AllOptimizations)
		d, recv := r.addGuest(t, "g1", typ, vmm.Kernel2628)
		nb := NewNetback(r.hv, 4)
		nb.AttachWire(r.port.PFQueue())
		if _, err := nb.CreateVif(d, nic.MAC(0xbb), recv); err != nil {
			t.Fatal(err)
		}
		r.pf.SetDom0MAC(nic.MAC(0xbb))
		dom0, xen = r.cycles("dom0"), r.cycles("xen")
		r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xbb), Count: 32, Bytes: 32 * 1514})
		r.eng.RunUntil(units.Time(50 * units.Millisecond))
		if recv.Stats.AppPackets != 32 {
			t.Fatalf("%v: app packets = %d", typ, recv.Stats.AppPackets)
		}
		// Every backend kick interrupts the frontend once.
		return r.cycles("dom0") - dom0, r.cycles("xen") - xen, recv.Stats.Interrupts, r.hv.EOICost()
	}
	hvmDom0, hvmXen, kicks, eoi := run(vmm.HVM)
	pvmDom0, _, _, _ := run(vmm.PVM)
	if kicks == 0 {
		t.Fatal("no backend kicks")
	}
	if got, want := hvmDom0-pvmDom0, units.Cycles(kicks)*model.PVNicHVMInterruptExtra; got != want {
		t.Fatalf("PV-on-HVM dom0 conversion cost = %d, want %d", got, want)
	}
	if want := units.Cycles(kicks) * (model.ExtIntExitCycles + eoi); hvmXen < want {
		t.Fatalf("PV-on-HVM xen cycles = %d, want at least %d (LAPIC interrupts)", hvmXen, want)
	}
}

func TestNetbackUnknownMACDrops(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	nb := NewNetback(r.hv, 1)
	nb.FromNIC(nic.Batch{Dst: nic.MAC(0x99), Count: 7, Bytes: 7 * 1514})
	if nb.Dropped != 7 {
		t.Fatalf("dropped = %d", nb.Dropped)
	}
}

func TestNetbackSingleThreadSaturates(t *testing.T) {
	// A single-threaded backend offered ~6 Gbps across several guests
	// keeps only ≈3-3.6 Gbps (§6.5) — the rest drops once queues fill.
	r := newRig(t, vmm.AllOptimizations)
	var recvs []*guest.NetReceiver
	nb := NewNetback(r.hv, 1)
	for i := 0; i < 4; i++ {
		d, recv := r.addGuest(t, names(i), vmm.PVM, vmm.Kernel2628)
		nb.CreateVif(d, nic.MAC(0xb0+uint64(i)), recv)
		recvs = append(recvs, recv)
	}
	r.meter.ResetWindow(0)
	// Offer 1.5 Gbps per guest: 16 packets per guest every ~129 µs.
	tick := sim.NewTicker(r.eng, 129*units.Microsecond, "gen", func(units.Time) {
		for i := 0; i < 4; i++ {
			nb.FromNIC(nic.Batch{Dst: nic.MAC(0xb0 + uint64(i)), Count: 16, Bytes: 16 * 1514})
		}
	})
	end := r.eng.RunUntil(units.Time(200 * units.Millisecond))
	tick.Stop()
	var total units.Size
	for _, recv := range recvs {
		total += recv.Stats.AppBytes
	}
	goodput := units.RateOf(total, end.Sub(0))
	if goodput.Gbps() < 2.7 || goodput.Gbps() > 4.2 {
		t.Fatalf("single-thread netback goodput = %v, want ≈3-3.6 Gbps", goodput)
	}
	if nb.Dropped == 0 {
		t.Fatal("overload should drop")
	}
	util := r.cycles("dom0") // the window opened after CreateVif: all copy-thread cycles
	sat := float64(util) / float64(model.ServerFreq.CyclesIn(end.Sub(0))) * 100
	if sat < 90 || sat > 110 {
		t.Fatalf("single netback thread utilization = %v, want ≈100%%", sat)
	}
}

func TestVMDqQueueAssignment(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	br := NewVMDqBridge(r.hv, 8)
	var recvs []*guest.NetReceiver
	for i := 0; i < 9; i++ {
		d, recv := r.addGuest(t, names(i), vmm.PVM, vmm.Kernel2628)
		if err := br.AddVif(d, nic.MAC(0xc0+uint64(i)), recv); err != nil {
			t.Fatal(err)
		}
		recvs = append(recvs, recv)
	}
	if br.queuesUsed != model.VMDqGuestQueues {
		t.Fatalf("queued guests = %d, want %d", br.queuesUsed, model.VMDqGuestQueues)
	}
	// Traffic to guest 0 (queued) and guest 8 (fallback).
	before := r.cycles("dom0")
	br.FromNIC(nic.Batch{Dst: nic.MAC(0xc0), Count: 10, Bytes: 15140})
	r.eng.RunUntil(units.Time(25 * units.Millisecond))
	qCost := r.cycles("dom0") - before
	before = r.cycles("dom0")
	br.FromNIC(nic.Batch{Dst: nic.MAC(0xc8), Count: 10, Bytes: 15140})
	r.eng.RunUntil(units.Time(50 * units.Millisecond))
	fbCost := r.cycles("dom0") - before
	if recvs[0].Stats.AppPackets != 10 || recvs[8].Stats.AppPackets != 10 {
		t.Fatalf("delivery: q=%d fb=%d", recvs[0].Stats.AppPackets, recvs[8].Stats.AppPackets)
	}
	if br.DeliveredQueued != 10 || br.DeliveredFallback != 10 {
		t.Fatalf("paths: q=%d fb=%d", br.DeliveredQueued, br.DeliveredFallback)
	}
	// The queued path must be cheaper for dom0 than the copying path.
	if qCost == 0 {
		t.Fatal("vmdq path cost missing")
	}
	if qCost >= fbCost {
		t.Fatalf("dom0 cost: queued %d, fallback %d; want queued cheaper", qCost, fbCost)
	}
}

func names(i int) string { return string(rune('a'+i)) + "-guest" }

func TestVMDqDuplicateVif(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	br := NewVMDqBridge(r.hv, 2)
	d, recv := r.addGuest(t, "g1", vmm.PVM, vmm.Kernel2628)
	br.AddVif(d, nic.MAC(1), recv)
	if err := br.AddVif(d, nic.MAC(1), recv); err == nil {
		t.Fatal("duplicate MAC should fail")
	}
}

func TestBondFailover(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	vf := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	nb := NewNetback(r.hv, 2)
	nb.AttachWire(r.port.PFQueue())
	pv, err := nb.CreateVif(d, nic.MAC(0xab), recv)
	if err != nil {
		t.Fatal(err)
	}
	r.pf.SetDom0MAC(nic.MAC(0xab))
	bond := NewBond(r.hv, d, vf, pv, r.port)
	if !bond.ActiveVF() {
		t.Fatal("VF should start active")
	}
	// Traffic via VF.
	bond.Ingress(10, 15140)
	r.eng.RunUntil(units.Time(5 * units.Millisecond))
	if recv.Stats.AppPackets != 10 {
		t.Fatalf("VF path packets = %d", recv.Stats.AppPackets)
	}
	// Failover with 2 ms outage: traffic during the outage is lost.
	bond.FailoverToPV(2 * units.Millisecond)
	bond.DetachVF()
	bond.Ingress(5, 7570) // within outage
	r.eng.RunUntil(units.Time(8 * units.Millisecond))
	if recv.Stats.AppPackets != 10 {
		t.Fatalf("packets = %d after the outage, want the 5 sent during it lost", recv.Stats.AppPackets)
	}
	// After the outage, traffic flows via PV.
	bond.Ingress(10, 15140)
	r.eng.RunUntil(units.Time(50 * units.Millisecond))
	if recv.Stats.AppPackets != 20 {
		t.Fatalf("PV path packets = %d, want 20 total", recv.Stats.AppPackets)
	}
	if bond.ActiveVF() {
		t.Fatal("VF should be inactive after failover")
	}
	// Re-attach a VF (the target host's hot add-on) and switch back.
	vf2 := r.attachVF(t, d, 1, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	bond.ActivateVF(vf2)
	if !bond.ActiveVF() {
		t.Fatal("VF should be active after ActivateVF")
	}
	bond.Ingress(10, 15140)
	r.eng.RunUntil(units.Time(100 * units.Millisecond))
	if recv.Stats.AppPackets != 30 {
		t.Fatalf("restored VF path packets = %d, want 30 total", recv.Stats.AppPackets)
	}
}

func TestPVGuestTransmit(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d1, recv1 := r.addGuest(t, "g1", vmm.PVM, vmm.Kernel2628)
	d2, recv2 := r.addGuest(t, "g2", vmm.PVM, vmm.Kernel2628)
	nb := NewNetback(r.hv, 4)
	v1, _ := nb.CreateVif(d1, nic.MAC(1), recv1)
	nb.CreateVif(d2, nic.MAC(2), recv2)
	sender := guest.NewNetSender(r.hv, d1)
	for i := 0; i < 50; i++ {
		v1.GuestTransmit(sender, nic.MAC(2), 4000, 1500)
	}
	r.eng.RunUntil(units.Time(1 * units.Second))
	if recv2.Stats.AppPackets != 150 {
		t.Fatalf("inter-VM PV packets = %d, want 150", recv2.Stats.AppPackets)
	}
}

func TestVFDriverUsesRegisters(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	r.port.Obs = obs.NewRegistry()
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	q := drv.Queue()
	// Init resets the device through CTRL, which disables interrupts, and
	// re-enables them once the queue is programmed.
	if !q.IntrEnabled() {
		t.Fatal("interrupts should be enabled after init")
	}
	// EITR was programmed through MMIO: 2 kHz = 500 µs.
	if got := drv.obsITR.Value(); got != 500 {
		t.Fatalf("EITR = %v µs, want 500", got)
	}
	// Under a steady stream the device throttles to that rate: at most one
	// interrupt per 500 µs.
	tick := sim.NewTicker(r.eng, 100*units.Microsecond, "gen", func(units.Time) {
		r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), Count: 2, Bytes: 3028})
	})
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	tick.Stop()
	if n := r.port.Obs.Get("nic." + q.Name() + ".intr_fired"); n < 10 || n > 21 {
		t.Fatalf("interrupts in 10 ms = %d, want ≈20 (2 kHz throttle)", n)
	}
}

func TestVFDriverJoinVLAN(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	r.eng.RunUntil(units.Time(5 * units.Millisecond)) // MAC ack first
	if err := drv.JoinVLAN(100); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	if got := r.pf.VFVLANs(0); len(got) != 1 || got[0] != 100 {
		t.Fatalf("PF recorded VLANs %v", got)
	}
	// Tagged traffic now reaches the guest.
	r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), VLAN: 100, Count: 5, Bytes: 7570})
	r.eng.RunUntil(units.Time(20 * units.Millisecond))
	if recv.Stats.AppPackets != 5 {
		t.Fatalf("tagged packets = %d", recv.Stats.AppPackets)
	}
	// Detach clears the VLAN filter too.
	drv.Detach()
	r.eng.RunUntil(units.Time(30 * units.Millisecond))
	if _, ok := r.port.ClassifyVLAN(nic.MAC(0xaa), 100); ok {
		t.Fatal("detach should clear VLAN filters")
	}
	if err := drv.JoinVLAN(200); err == nil {
		t.Fatal("JoinVLAN after detach should fail")
	}
}

func TestPFDriverAdminMAC(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	if r.pf.port != r.port {
		t.Fatal("Port accessor")
	}
	// The VF driver's MAC request reaches the switch through the mailbox.
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	r.attachVF(t, d, 0, nic.MAC(0x11), recv, nil)
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	if mac := r.pf.vfMACs[0]; mac != nic.MAC(0x11) {
		t.Fatalf("PF records VF0 MAC %v, want 0x11", mac)
	}
	if _, ok := r.port.ClassifyVLAN(nic.MAC(0x11), 0); !ok {
		t.Fatal("VF MAC should program the switch")
	}
	// Shutting the VF down administratively clears its filter.
	r.pf.ShutdownVF(0)
	if _, ok := r.port.ClassifyVLAN(nic.MAC(0x11), 0); ok {
		t.Fatal("old MAC filter should be cleared")
	}
}

func TestPFDriverLinkChangeBroadcast(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d1, recv1 := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	d2, recv2 := r.addGuest(t, "g2", vmm.HVM, vmm.Kernel2628)
	r.attachVF(t, d1, 0, nic.MAC(1), recv1, nil)
	r.attachVF(t, d2, 1, nic.MAC(2), recv2, nil)
	r.eng.RunUntil(units.Time(5 * units.Millisecond))
	notices := vfNotices(r.port.Mailbox())
	r.pf.NotifyLinkChange()
	r.eng.RunUntil(units.Time(10 * units.Millisecond))
	want := []nic.Message{{Kind: nic.MsgLinkChange, VF: 0}, {Kind: nic.MsgLinkChange, VF: 1}}
	if n := *notices; len(n) != 2 || n[0] != want[0] || n[1] != want[1] {
		t.Fatalf("link change not broadcast to both VFs: %v", n)
	}
}

func TestVFDriverSetPolicy(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	r.port.Obs = obs.NewRegistry()
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(1), recv, netstack.FixedITR(20000))
	if drv.policy.String() != "20kHz" {
		t.Fatalf("policy = %v", drv.policy)
	}
	// The configured policy's rate is what the driver programs into EITR.
	if got := drv.obsITR.Value(); got != 50 {
		t.Fatalf("EITR = %v µs, want 50", got)
	}
}

func TestNetbackAccessors(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	nb := NewNetback(r.hv, 3)
	if nb.Backlog() != 0 {
		t.Fatal("Backlog should start empty")
	}
	d, recv := r.addGuest(t, "g1", vmm.PVM, vmm.Kernel2628)
	v, _ := nb.CreateVif(d, nic.MAC(9), recv)
	if v.MAC() != nic.MAC(9) || v.dom != d {
		t.Fatal("vif accessors")
	}
}

func TestNetbackLocalTransferUnknownDst(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	nb := NewNetback(r.hv, 1)
	nb.LocalTransfer(nic.Batch{Dst: nic.MAC(0x77), Count: 4, Bytes: 6056})
	if nb.Dropped != 4 {
		t.Fatalf("dropped = %d", nb.Dropped)
	}
}

func TestVMDqAttachWire(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	br := NewVMDqBridge(r.hv, 2)
	d, recv := r.addGuest(t, "g1", vmm.PVM, vmm.Kernel2628)
	if err := br.AddVif(d, nic.MAC(0xcc), recv); err != nil {
		t.Fatal(err)
	}
	br.AttachWire(r.port.PFQueue())
	r.pf.SetDom0MAC(nic.MAC(0xcc))
	r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xcc), Count: 8, Bytes: 12112})
	r.eng.RunUntil(units.Time(20 * units.Millisecond))
	if recv.Stats.AppPackets != 8 {
		t.Fatalf("wire→vmdq packets = %d", recv.Stats.AppPackets)
	}
}

func TestBondAccessors(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	vf := r.attachVF(t, d, 0, nic.MAC(1), recv, nil)
	nb := NewNetback(r.hv, 1)
	pv, _ := nb.CreateVif(d, nic.MAC(2), recv)
	bond := NewBond(r.hv, d, vf, pv, r.port)
	if bond.VF() != vf || bond.pv != pv {
		t.Fatal("bond accessors")
	}
	// Double failover is a no-op.
	bond.FailoverToPV(units.Millisecond)
	g1 := r.cycles("g1")
	bond.FailoverToPV(units.Millisecond)
	if r.cycles("g1") != g1 {
		t.Fatal("second failover should be a no-op")
	}
}

func TestReceiverLatencyTracksITR(t *testing.T) {
	// Mean ring wait scales inversely with the interrupt rate.
	meanWait := func(hz float64) units.Duration {
		r := newRig(t, vmm.AllOptimizations)
		d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
		r.attachVF(t, d, 0, nic.MAC(1), recv, netstack.FixedITR(hz))
		tick := sim.NewTicker(r.eng, 100*units.Microsecond, "gen", func(units.Time) {
			r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(1), Count: 8, Bytes: 8 * 1514})
		})
		r.eng.RunUntil(units.Time(500 * units.Millisecond))
		tick.Stop()
		return recv.Latency.Mean()
	}
	fast := meanWait(20000)
	slow := meanWait(1000)
	if fast >= slow {
		t.Fatalf("latency should rise as IF falls: 20k=%v 1k=%v", fast, slow)
	}
	if slow < 200*units.Microsecond {
		t.Fatalf("1 kHz mean wait = %v, want several hundred µs", slow)
	}
}

// newKVMRig mirrors newRig on a KVM-flavoured hypervisor — exercising the
// §4 portability claim: no driver code changes below this constructor.
func newKVMRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(7)
	meter := cpu.NewMeter()
	fabric := pcie.NewFabric()
	mmu := iommu.New(512)
	fabric.SetIOMMU(mmu)
	hv := vmm.NewFlavored(eng, meter, fabric, mmu, vmm.AllOptimizations, vmm.KVM)
	port := nic.New(eng, nic.Config{Name: "eth0", NumVFs: 7})
	rp := fabric.AddRootPort("rp0")
	fabric.Attach(rp, port.Device())
	fabric.Enumerate()
	r := &rig{eng: eng, meter: meter, fabric: fabric, mmu: mmu, hv: hv,
		machine: mem.NewMachine(model.ServerMemory), port: port}
	r.pf = NewPFDriver(hv, port)
	if err := r.pf.EnableVFs(7); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDriversPortableToKVM(t *testing.T) {
	// The exact same PF/VF driver code runs on the KVM flavour: attach,
	// mailbox, interrupt path, traffic — "ported from Xen to KVM, without
	// code modification to the PF and VF drivers" (§4).
	r := newKVMRig(t)
	if r.hv.Dom0().Name != "host" {
		t.Fatalf("service domain = %q, want host", r.hv.Dom0().Name)
	}
	d, recv := r.addGuest(t, "guest-1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	for i := 0; i < 20; i++ {
		dly := units.Duration(i) * 500 * units.Microsecond
		r.eng.After(dly, "gen", func() {
			r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), Count: 10, Bytes: 15140})
		})
	}
	r.eng.RunUntil(units.Time(20 * units.Millisecond))
	if recv.Stats.AppPackets != 200 {
		t.Fatalf("app packets = %d", recv.Stats.AppPackets)
	}
	if !drv.MACConfirmed {
		t.Fatal("mailbox flow should work identically")
	}
	// The service domain is the host kernel, not dom0.
	if r.cycles("dom0") != 0 {
		t.Fatal("KVM run charged a dom0")
	}
	if r.cycles("host") == 0 {
		t.Fatal("host cycles missing (PF driver, QEMU)")
	}
}

func TestKVMRejectsPVM(t *testing.T) {
	r := newKVMRig(t)
	defer func() {
		if recover() == nil {
			t.Error("PVM guest on KVM should panic")
		}
	}()
	r.hv.CreateDomain("g", vmm.PVM, vmm.Kernel2628, nil)
}

func TestMSIXTableProgramming(t *testing.T) {
	r := newRig(t, vmm.Optimizations{})
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.KernelRHEL5)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, nil)
	q := drv.Queue()
	// The driver programmed entry 0's message address and data: three
	// trapped writes to the table page.
	if r := r.hv.Exits()[vmm.ExitMSIMask]; r.Count < 3 {
		t.Fatalf("MSI-X programming exits = %+v, want ≥3", r)
	}
	// The table BAR is what the capability points at.
	msix, ok := pcie.MSIXCapAt(q.Function().Config())
	if !ok || msix.TableBIR() != nic.MSIXTableBAR {
		t.Fatalf("table BIR = %d", msix.TableBIR())
	}
	// One interrupt on a masking kernel: two vector-control writes, both
	// seen by the table and both trapped by the hypervisor.
	r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), Count: 5, Bytes: 7570})
	r.eng.RunUntil(units.Time(5 * units.Millisecond))
	if recv.Stats.AppPackets != 5 {
		t.Fatalf("packets = %d", recv.Stats.AppPackets)
	}
	if got := r.hv.Counters.Get("msi_mask_writes"); got != 2 {
		t.Fatalf("trapped mask writes = %d, want 2", got)
	}
}

func TestBAR0WritesAreNotTrapped(t *testing.T) {
	// Direct I/O's point: BAR0 register writes by the guest cost no VMM
	// cycles; only the MSI-X table page traps.
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, nil)
	r.eng.RunUntil(units.Time(5 * units.Millisecond))
	r.meter.ResetWindow(r.eng.Now())
	xenBefore := r.cycles("xen")
	r.hv.GuestMMIOWrite(d, drv.Queue().Function(), 0, nic.RegRDT0, 64)
	if r.cycles("xen") != xenBefore {
		t.Fatal("BAR0 write should not trap")
	}
	r.hv.GuestMMIOWrite(d, drv.Queue().Function(), nic.MSIXTableBAR, 8, 0x41)
	if r.cycles("xen") == xenBefore {
		t.Fatal("MSI-X table write should trap")
	}
}

func TestVFTransmitExternal(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, nil)
	var clientBytes units.Size
	r.port.Egress = func(b nic.Batch) { clientBytes += b.Bytes }
	sender := guest.NewNetSender(r.hv, d)
	for i := 0; i < 100; i++ {
		dly := units.Duration(i) * 130 * units.Microsecond
		r.eng.After(dly, "tx", func() {
			drv.TransmitExternal(sender, nic.MAC(0xff), 1500, 1500)
		})
	}
	r.eng.RunUntil(units.Time(50 * units.Millisecond))
	if clientBytes != 150000 {
		t.Fatalf("client received %d bytes", clientBytes)
	}
	if r.cycles("g1") == 0 {
		t.Fatal("sender cycles missing")
	}
	drv.Detach()
	if n, _ := drv.TransmitExternal(sender, nic.MAC(0xff), 1500, 1500); n != 0 {
		t.Fatal("detached driver must not transmit")
	}
}

func TestInterruptRemappingOnVFPath(t *testing.T) {
	r := newRig(t, vmm.AllOptimizations)
	d, recv := r.addGuest(t, "g1", vmm.HVM, vmm.Kernel2628)
	drv := r.attachVF(t, d, 0, nic.MAC(0xaa), recv, netstack.FixedITR(2000))
	fn := drv.Queue().Function()
	// The driver's bind programmed an IRTE for the VF's requester.
	vec := uint8(0)
	for v := 32; v < 256; v++ {
		if e, ok := r.mmu.IRTEFor(uint8(v)); ok && e.RID == uint16(fn.RID()) {
			vec = uint8(v)
			break
		}
	}
	if vec == 0 {
		t.Fatal("no IRTE programmed for the VF")
	}
	// Legit traffic flows (remap validated).
	r.port.ReceiveFromWire(nic.Batch{Dst: nic.MAC(0xaa), Count: 5, Bytes: 7570})
	r.eng.RunUntil(units.Time(5 * units.Millisecond))
	if recv.Stats.AppPackets != 5 {
		t.Fatalf("packets = %d", recv.Stats.AppPackets)
	}
	if r.mmu.Counters.Get("msi_remapped") == 0 {
		t.Fatal("deliveries should be validated through the remap table")
	}
	// A forged message from another requester is blocked.
	if err := r.mmu.ValidateMSI(0x0999, vec); err == nil {
		t.Fatal("spoof should be blocked")
	}
	// Detach clears the entry.
	drv.Detach()
	if _, ok := r.mmu.IRTEFor(vec); ok {
		t.Fatal("IRTE should be cleared on detach")
	}
}
