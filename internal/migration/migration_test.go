package migration

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/guest"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

type rig struct {
	eng     *sim.Engine
	meter   *cpu.Meter
	fabric  *pcie.Fabric
	mmu     *iommu.IOMMU
	hv      *vmm.Hypervisor
	machine *mem.Machine
	port    *nic.Port
	pf      *drivers.PFDriver
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(11)
	meter := cpu.NewMeter()
	fabric := pcie.NewFabric()
	mmu := iommu.New(512)
	fabric.SetIOMMU(mmu)
	hv := vmm.NewFlavored(eng, meter, fabric, mmu, vmm.AllOptimizations, vmm.Xen)
	port := nic.New(eng, nic.Config{Name: "eth0", NumVFs: 7})
	rp := fabric.AddRootPort("rp0")
	fabric.Attach(rp, port.Device())
	fabric.Enumerate()
	r := &rig{eng: eng, meter: meter, fabric: fabric, mmu: mmu, hv: hv,
		machine: mem.NewMachine(model.ServerMemory), port: port}
	r.pf = drivers.NewPFDriver(hv, port)
	if err := r.pf.EnableVFs(7); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) guestWithMemory(t *testing.T, name string, typ vmm.DomainType) (*vmm.Domain, *guest.NetReceiver) {
	t.Helper()
	dm, err := mem.NewDomainMemory(r.machine, model.GuestMemory)
	if err != nil {
		t.Fatal(err)
	}
	d := r.hv.CreateDomain(name, typ, vmm.Kernel2628, dm)
	return d, guest.NewNetReceiver(r.hv, d)
}

func (r *rig) attachVF(t *testing.T, d *vmm.Domain, idx int, mac nic.MAC, recv *guest.NetReceiver) *drivers.VFDriver {
	t.Helper()
	fn := r.port.VFQueue(idx).Function()
	if _, err := r.fabric.HotAdd(fn.RID()); err != nil {
		t.Fatal(err)
	}
	if err := r.hv.AssignDevice(d, fn); err != nil {
		t.Fatal(err)
	}
	drv, err := drivers.AttachVFDriver(r.hv, d, r.port, idx, recv, drivers.VFConfig{MAC: mac, Policy: netstack.FixedITR(2000)})
	if err != nil {
		t.Fatal(err)
	}
	return drv
}

func TestMigratePVConvergesWithPaperShape(t *testing.T) {
	r := newRig(t)
	d, _ := r.guestWithMemory(t, "g1", vmm.PVM)
	m := NewManager(r.hv)
	dom0 := r.meter.Ledger("dom0")
	dom0Before := r.meter.DomainCycles(dom0)
	var res *Result
	if err := m.MigratePV(d, func(rr *Result) { res = rr }); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(units.Time(30 * units.Second))
	if res == nil {
		t.Fatal("migration never completed")
	}
	// First round carries all of memory (512 MiB ≈ 4.3 s at 1 Gbps).
	if res.PrecopyRounds[0] != d.Memory.Pages() {
		t.Fatalf("round 0 pages = %d", res.PrecopyRounds[0])
	}
	// Rounds shrink (pre-copy converges through the working set).
	for i := 1; i < len(res.PrecopyRounds); i++ {
		if res.PrecopyRounds[i] >= res.PrecopyRounds[i-1] {
			t.Fatalf("round %d did not shrink: %v", i, res.PrecopyRounds)
		}
	}
	// Paper shape: total ≈ 7.3 s, downtime ≈ 1.4 s.
	total := res.TotalDuration().Seconds()
	down := res.Downtime().Seconds()
	if total < 4.5 || total > 10 {
		t.Fatalf("total migration = %.2fs, want ≈5.9–7.3s", total)
	}
	if down < 1.0 || down > 2.0 {
		t.Fatalf("downtime = %.2fs, want ≈1.4s", down)
	}
	// Guest resumed.
	if d.Paused() {
		t.Fatal("guest still paused")
	}
	// dom0 paid for the page processing, and for nothing else: the rig
	// carries no traffic.
	if got, want := r.meter.DomainCycles(dom0)-dom0Before, units.Cycles(res.PagesSent*model.MigrationPerPageDom0Cycles); got != want {
		t.Fatalf("dom0 charged %d cycles during migration, want %d (%d pages)", got, want, res.PagesSent)
	}
}

func TestMigratePVRefusesPassthrough(t *testing.T) {
	r := newRig(t)
	d, recv := r.guestWithMemory(t, "g1", vmm.HVM)
	r.attachVF(t, d, 0, nic.MAC(0xaa), recv)
	m := NewManager(r.hv)
	if err := m.MigratePV(d, nil); err == nil {
		t.Fatal("migration with assigned hardware must be refused (hardware stickiness)")
	}
}

func TestMigratePVNeedsMemory(t *testing.T) {
	r := newRig(t)
	d := r.hv.CreateDomain("g", vmm.PVM, vmm.Kernel2628, nil)
	m := NewManager(r.hv)
	if err := m.MigratePV(d, nil); err == nil {
		t.Fatal("memoryless domain should be rejected")
	}
}

func TestMigrateDNISFullCycle(t *testing.T) {
	r := newRig(t)
	d, recv := r.guestWithMemory(t, "g1", vmm.HVM)
	vf := r.attachVF(t, d, 0, nic.MAC(0xaa), recv)
	nb := drivers.NewNetback(r.hv, 2)
	nb.AttachWire(r.port.PFQueue())
	pv, err := nb.CreateVif(d, nic.MAC(0xab), recv)
	if err != nil {
		t.Fatal(err)
	}
	r.pf.SetDom0MAC(nic.MAC(0xab))
	bond := drivers.NewBond(r.hv, d, vf, pv, r.port)

	m := NewManager(r.hv)
	var res *Result
	reattached := false
	err = m.MigrateDNIS(d, bond, func() *drivers.VFDriver {
		reattached = true
		return r.attachVF(t, d, 1, nic.MAC(0xaa), recv)
	}, func(rr *Result) { res = rr })
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(units.Time(30 * units.Second))
	if res == nil {
		t.Fatal("migration never completed")
	}
	if res.SwitchOutage != model.DNISSwitchOutage {
		t.Fatalf("switch outage = %v", res.SwitchOutage)
	}
	if !reattached {
		t.Fatal("VF not re-attached at target")
	}
	if !bond.ActiveVF() {
		t.Fatal("bond should be back on the VF")
	}
	// The original VF is fully released: IOMMU context gone.
	if r.mmu.Attached(uint16(r.port.VFQueue(0).Function().RID())) {
		t.Fatal("source VF still attached to IOMMU")
	}
	if down := res.Downtime().Seconds(); down < 1.0 || down > 2.0 {
		t.Fatalf("downtime = %.2fs", down)
	}
	if d.Paused() {
		t.Fatal("guest still paused")
	}
}

// Regression: the target-side VF hot add-on completes *after* the guest
// resumes, and that interval must be reported on its own — it used to be
// conflated with SwitchOutage, which only covers the datapath outage the
// bond absorbs via its PV slave.
func TestMigrateDNISHotAddLatencySeparateFromOutage(t *testing.T) {
	r := newRig(t)
	d, recv := r.guestWithMemory(t, "g1", vmm.HVM)
	vf := r.attachVF(t, d, 0, nic.MAC(0xaa), recv)
	nb := drivers.NewNetback(r.hv, 2)
	nb.AttachWire(r.port.PFQueue())
	pv, err := nb.CreateVif(d, nic.MAC(0xab), recv)
	if err != nil {
		t.Fatal(err)
	}
	r.pf.SetDom0MAC(nic.MAC(0xab))
	bond := drivers.NewBond(r.hv, d, vf, pv, r.port)

	m := NewManager(r.hv)
	var res *Result
	err = m.MigrateDNIS(d, bond, func() *drivers.VFDriver {
		return r.attachVF(t, d, 1, nic.MAC(0xaa), recv)
	}, func(rr *Result) { res = rr })
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(units.Time(30 * units.Second))
	if res == nil {
		t.Fatal("migration never completed")
	}
	if res.Err != nil {
		t.Fatalf("unexpected failure: %v", res.Err)
	}
	// The hot add-on lands strictly after the resume...
	if res.HotAddDone <= res.DowntimeEnd {
		t.Fatalf("hot-add at %v, not after resume at %v", res.HotAddDone, res.DowntimeEnd)
	}
	// ...by exactly the hotplug event latency (the reattach itself is
	// instantaneous in the model).
	if got := res.VFHotAddLatency(); got != model.HotplugEventLatency {
		t.Fatalf("VF hot-add latency = %v, want %v", got, model.HotplugEventLatency)
	}
	// And the two measures stay distinct: SwitchOutage is the configured
	// datapath outage, untouched by hot-plug timing.
	if res.SwitchOutage != model.DNISSwitchOutage {
		t.Fatalf("switch outage = %v, want %v", res.SwitchOutage, model.DNISSwitchOutage)
	}
	if down := res.Downtime().Seconds(); down < 1.0 || down > 2.0 {
		t.Fatalf("downtime = %.2fs", down)
	}
}

func TestMigrateDNISRequiresActiveVF(t *testing.T) {
	r := newRig(t)
	d, recv := r.guestWithMemory(t, "g1", vmm.HVM)
	nb := drivers.NewNetback(r.hv, 2)
	pv, _ := nb.CreateVif(d, nic.MAC(0xab), recv)
	bond := drivers.NewBond(r.hv, d, nil, pv, r.port)
	m := NewManager(r.hv)
	if err := m.MigrateDNIS(d, bond, nil, nil); err == nil {
		t.Fatal("DNIS without a VF should be refused")
	}
}

func TestDNISMaintainsConnectivityDuringPrecopy(t *testing.T) {
	// During pre-copy the guest keeps receiving via the PV NIC; only the
	// switch window and stop-and-copy lose traffic.
	r := newRig(t)
	d, recv := r.guestWithMemory(t, "g1", vmm.HVM)
	vf := r.attachVF(t, d, 0, nic.MAC(0xaa), recv)
	nb := drivers.NewNetback(r.hv, 2)
	nb.AttachWire(r.port.PFQueue())
	pv, _ := nb.CreateVif(d, nic.MAC(0xab), recv)
	r.pf.SetDom0MAC(nic.MAC(0xab))
	bond := drivers.NewBond(r.hv, d, vf, pv, r.port)

	// Continuous traffic into the bond.
	tick := sim.NewTicker(r.eng, units.Millisecond, "gen", func(units.Time) {
		bond.Ingress(10, 15140)
	})
	m := NewManager(r.hv)
	var res *Result
	m.MigrateDNIS(d, bond, func() *drivers.VFDriver {
		return r.attachVF(t, d, 1, nic.MAC(0xaa), recv)
	}, func(rr *Result) { res = rr })
	// Count what reaches the guest during the switch outage, from once the
	// packets already on the VF path have landed until the outage ends.
	outageRx := int64(-1)
	failover := d.HotplugHandler
	d.HotplugHandler = func(ev vmm.HotplugEvent) {
		failover(ev)
		if !ev.Remove {
			return
		}
		var before int64
		r.eng.After(10*units.Millisecond, "probe", func() { before = recv.Stats.AppPackets })
		r.eng.After(model.DNISSwitchOutage, "probe", func() { outageRx = recv.Stats.AppPackets - before })
	}
	// Sample goodput midway through pre-copy (after the switch outage).
	r.eng.RunUntil(units.Time(2 * units.Second))
	midStats := recv.Stats
	r.eng.RunUntil(units.Time(3 * units.Second))
	precopyDelta := recv.Stats.AppPackets - midStats.AppPackets
	if precopyDelta < 8000 {
		t.Fatalf("pre-copy goodput too low: %d packets in 1s, want ≈10000", precopyDelta)
	}
	r.eng.RunUntil(units.Time(30 * units.Second))
	tick.Stop()
	if res == nil {
		t.Fatal("migration never completed")
	}
	if outageRx != 0 {
		t.Fatalf("guest received %d packets in the switch outage, want all dropped", outageRx)
	}
}
